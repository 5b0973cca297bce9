//! Seeded input generation. Everything the engine sees is made here,
//! before a round's clock starts; the same `--seed` yields the same ops.

use bytes::Bytes;
use lob_ops::{LogicalOp, OpBody, PhysioOp};
use lob_pagestore::PageId;

/// splitmix64: small, seedable, and good enough to pick pages.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5EED_1E55_C0FF_EE00)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix64(self.0)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is far below anything
    /// the workloads can see.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The splitmix64 finalizer: a bijection on `u64`, so distinct counters
/// give distinct keys.
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Zipf(θ) over ranks `0..n` (rank 0 hottest) by inverting the CDF.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, theta: f64) -> Zipf {
        assert!(n > 0, "zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0f64;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(theta);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// One foreground operation of the online phase.
#[derive(Clone)]
pub enum Op {
    /// Read a page through the cache.
    Read(PageId),
    /// Execute a logged operation, then commit it.
    Write(OpBody),
    /// B-tree point lookup, with the value it must return.
    Get(Vec<u8>, Vec<u8>),
    /// B-tree insert of a key that does not exist yet, then commit.
    Insert(Vec<u8>, Vec<u8>),
}

/// Which logged operations a page workload's writes are drawn from.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WriteMix {
    /// Half `LogicalOp::Mix` (2 reads, 1 write), half 16-byte `SetBytes`.
    MixAndSetBytes,
    /// 16-byte `SetBytes` only.
    SetBytes,
    /// Half full-page `PhysicalWrite`, half `LogicalOp::Mix`.
    PhysicalAndMix,
}

/// Bytes a `SetBytes` overlay writes.
pub const SET_BYTES_LEN: usize = 16;

/// Seed of the rank→page and rank→key shuffles: which pages and keys are
/// hot is fixed for all runs; `--seed` drives which ops are issued.
const LAYOUT_SEED: u64 = 0x001A_7007;

/// Ops per block of an exact op mix (shares are multiples of 1/20).
pub const MIX_BLOCK: usize = 20;

#[derive(Clone, Copy, PartialEq, Eq)]
enum PageOpKind {
    Read,
    SetBytes,
    Mix,
    Physical,
}

fn random_bytes(rng: &mut Rng, len: usize) -> Bytes {
    let mut out = Vec::with_capacity(len + 8);
    while out.len() < len {
        out.extend_from_slice(&rng.next_u64().to_le_bytes());
    }
    out.truncate(len);
    Bytes::from(out)
}

/// The write set-up preloads `target` with: a full random page where the
/// workload's ops read page contents, a 16-byte overlay where they only
/// ever overlay (which also keeps the file log small).
pub fn preload_write(rng: &mut Rng, target: PageId, page_size: usize, mix: WriteMix) -> OpBody {
    match mix {
        WriteMix::SetBytes => OpBody::Physio(PhysioOp::SetBytes {
            target,
            offset: rng.below(page_size - SET_BYTES_LEN + 1) as u32,
            bytes: random_bytes(rng, SET_BYTES_LEN),
        }),
        WriteMix::MixAndSetBytes | WriteMix::PhysicalAndMix => OpBody::PhysicalWrite {
            target,
            value: random_bytes(rng, page_size),
        },
    }
}

/// Page-op generator over one group of partitions. Every op stays inside
/// one partition, so it is legal under per-partition backup domains.
pub struct PageGen {
    rng: Rng,
    zipf: Zipf,
    /// `rank_to_page[partition slot][rank]`: a seeded shuffle, so the hot
    /// set is spread over the whole sweep order instead of sitting at
    /// index 0.
    rank_to_page: Vec<Vec<PageId>>,
    page_size: usize,
    read_share: f64,
    mix: WriteMix,
    salt: u64,
}

impl PageGen {
    /// Ops over `partitions`, targeting the `span` hottest-ranked pages of
    /// each (`span` = pages per partition for a whole-partition Zipf).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        seed: u64,
        partitions: &[u32],
        pages_per_partition: u32,
        span: u32,
        theta: f64,
        page_size: usize,
        read_share: f64,
        mix: WriteMix,
    ) -> PageGen {
        assert!(span >= 3 && span <= pages_per_partition);
        // Which pages are hot is part of the database, not of the run: the
        // layout seed is fixed, so where the hot pages sit in the sweep
        // order (and with it the Iw/oF rate) does not change with `--seed`.
        let mut layout = Rng::new(LAYOUT_SEED);
        let rank_to_page = partitions
            .iter()
            .map(|&p| {
                let mut ids: Vec<PageId> = (0..pages_per_partition)
                    .map(|i| PageId::new(p, i))
                    .collect();
                layout.shuffle(&mut ids);
                ids.truncate(span as usize);
                ids
            })
            .collect();
        PageGen {
            zipf: Zipf::new(span as usize, theta),
            rng: Rng::new(seed),
            rank_to_page,
            page_size,
            read_share,
            mix,
            salt: mix64(seed),
        }
    }

    fn page(&mut self, slot: usize) -> PageId {
        self.rank_to_page[slot][self.zipf.sample(&mut self.rng)]
    }

    fn set_bytes(&mut self, target: PageId) -> OpBody {
        OpBody::Physio(PhysioOp::SetBytes {
            target,
            offset: self.rng.below(self.page_size - SET_BYTES_LEN + 1) as u32,
            bytes: random_bytes(&mut self.rng, SET_BYTES_LEN),
        })
    }

    fn mix_op(&mut self, slot: usize) -> OpBody {
        let write = self.page(slot);
        let mut reads = Vec::with_capacity(2);
        while reads.len() < 2 {
            let r = self.page(slot);
            if r != write && !reads.contains(&r) {
                reads.push(r);
            }
        }
        self.salt = self.salt.wrapping_add(0x9e37_79b9_7f4a_7c15);
        OpBody::Logical(LogicalOp::Mix {
            reads,
            writes: vec![write],
            salt: self.salt,
        })
    }

    fn physical(&mut self, target: PageId) -> OpBody {
        OpBody::PhysicalWrite {
            target,
            value: random_bytes(&mut self.rng, self.page_size),
        }
    }

    fn op_of(&mut self, kind: PageOpKind) -> Op {
        let slot = self.rng.below(self.rank_to_page.len());
        match kind {
            PageOpKind::Read => Op::Read(self.page(slot)),
            PageOpKind::SetBytes => {
                let t = self.page(slot);
                Op::Write(self.set_bytes(t))
            }
            PageOpKind::Mix => Op::Write(self.mix_op(slot)),
            PageOpKind::Physical => {
                let t = self.page(slot);
                Op::Write(self.physical(t))
            }
        }
    }

    /// `n` ops. The mix is exact, not drawn: every block of [`MIX_BLOCK`]
    /// ops holds the same number of each kind in a shuffled order, so op
    /// counts (and with them log bytes per op) do not vary with the seed.
    pub fn ops(&mut self, n: usize) -> Vec<Op> {
        let reads = (self.read_share * MIX_BLOCK as f64).round() as usize;
        let writes = MIX_BLOCK - reads;
        let (a, b) = match self.mix {
            WriteMix::SetBytes => (PageOpKind::SetBytes, PageOpKind::SetBytes),
            WriteMix::MixAndSetBytes => (PageOpKind::Mix, PageOpKind::SetBytes),
            WriteMix::PhysicalAndMix => (PageOpKind::Physical, PageOpKind::Mix),
        };
        let mut block: Vec<PageOpKind> = Vec::with_capacity(MIX_BLOCK);
        block.extend(std::iter::repeat(PageOpKind::Read).take(reads));
        block.extend(std::iter::repeat(a).take(writes / 2));
        block.extend(std::iter::repeat(b).take(writes - writes / 2));
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            self.rng.shuffle(&mut block);
            for &kind in block.iter().take(n - out.len()) {
                let op = self.op_of(kind);
                out.push(op);
            }
        }
        out
    }

    /// A write the driver executes but never commits: the tail a crash
    /// must lose.
    pub fn uncommitted_write(&mut self) -> OpBody {
        let slot = self.rng.below(self.rank_to_page.len());
        let t = self.page(slot);
        self.set_bytes(t)
    }
}

/// Key-value op generator for the B-tree workload.
pub struct KeyGen {
    rng: Rng,
    zipf: Zipf,
    /// Zipf rank → index of a preloaded key (a seeded shuffle).
    rank_to_key: Vec<u32>,
    /// Keys handed out so far; the next insert takes this counter.
    next_key: u64,
    value_len: usize,
    insert_share: f64,
}

impl KeyGen {
    pub fn new(
        seed: u64,
        preloaded: u32,
        theta: f64,
        value_len: usize,
        insert_share: f64,
    ) -> KeyGen {
        let mut rank_to_key: Vec<u32> = (0..preloaded).collect();
        Rng::new(LAYOUT_SEED).shuffle(&mut rank_to_key);
        KeyGen {
            zipf: Zipf::new(preloaded as usize, theta),
            rng: Rng::new(seed),
            rank_to_key,
            next_key: preloaded as u64,
            value_len,
            insert_share,
        }
    }

    /// The `i`-th key ever created: 8 big-endian bytes of a bijective
    /// mix, so keys are unique and arrive in random tree order.
    pub fn key(i: u64) -> Vec<u8> {
        mix64(i.wrapping_add(1)).to_be_bytes().to_vec()
    }

    pub fn value(i: u64, len: usize) -> Vec<u8> {
        let mut out = Vec::with_capacity(len + 8);
        let mut state = i ^ 0x7A1E;
        while out.len() < len {
            state = mix64(state.wrapping_add(0x9e37_79b9_7f4a_7c15));
            out.extend_from_slice(&state.to_le_bytes());
        }
        out.truncate(len);
        out
    }

    /// The preload set, as two key-ordered passes: two keys in three, then
    /// the remaining third. A sorted pass walks the tree left to right, so
    /// the nodes it needs stay cached instead of costing a miss and an
    /// eviction scan per key. The first pass alone would leave every leaf
    /// exactly half full (the right-split of a sorted load), and no insert
    /// would split for many rounds; the second pass lands a random third
    /// more keys on those leaves, so fills are mixed and the split rate is
    /// steady from the first round on.
    pub fn preload(n: u32, value_len: usize) -> Vec<(Vec<u8>, Vec<u8>)> {
        let record = |i: u64| (KeyGen::key(i), KeyGen::value(i, value_len));
        let mut first: Vec<_> = (0..n as u64).filter(|i| i % 3 != 2).map(record).collect();
        let mut second: Vec<_> = (0..n as u64).filter(|i| i % 3 == 2).map(record).collect();
        first.sort();
        second.sort();
        first.extend(second);
        first
    }

    fn insert_op(&mut self) -> Op {
        let i = self.next_key;
        self.next_key += 1;
        Op::Insert(KeyGen::key(i), KeyGen::value(i, self.value_len))
    }

    fn get_op(&mut self) -> Op {
        let k = self.rank_to_key[self.zipf.sample(&mut self.rng)] as u64;
        Op::Get(KeyGen::key(k), KeyGen::value(k, self.value_len))
    }

    /// `n` ops with an exact mix: every block of [`MIX_BLOCK`] ops holds
    /// the same number of inserts, at shuffled positions.
    pub fn ops(&mut self, n: usize) -> Vec<Op> {
        let inserts = (self.insert_share * MIX_BLOCK as f64).round() as usize;
        let mut block: Vec<bool> = (0..MIX_BLOCK).map(|i| i < inserts).collect();
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            self.rng.shuffle(&mut block);
            for &insert in block.iter().take(n - out.len()) {
                let op = if insert {
                    self.insert_op()
                } else {
                    self.get_op()
                };
                out.push(op);
            }
        }
        out
    }

    /// Keys of `n` gets drawn like the workload's own, for cache warm-up.
    pub fn warmup_keys(&mut self, n: usize) -> Vec<Vec<u8>> {
        (0..n)
            .map(|_| KeyGen::key(self.rank_to_key[self.zipf.sample(&mut self.rng)] as u64))
            .collect()
    }

    /// An insert the driver executes but never commits.
    pub fn uncommitted_insert(&mut self) -> (Vec<u8>, Vec<u8>) {
        // Drawn from a key range no committed insert ever reaches.
        let i = (1u64 << 40) + self.rng.next_u64() % (1u64 << 20);
        (KeyGen::key(i), KeyGen::value(i, self.value_len))
    }
}
