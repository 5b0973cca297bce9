//! # lob-apprec — application recovery operations
//!
//! The paper's application-recovery example (§1.1, from Lomet's ICDE 1998
//! paper, revisited for backup in §6.2). An application `A` is a
//! recoverable object (its state page); its interactions are logged as
//!
//! * `Ex(A)` — execution between resource-manager calls (physiological);
//! * `R(X, A)` — application read: `A` absorbs `X`; only identifiers are
//!   logged, creating the flush dependency *`A` before later updates of
//!   `X`*;
//! * `W_L(A, X)` — application logical write of a fresh output page.
//!
//! §6.2's observation: in the resulting write graphs **only applications
//! are predecessors**. If applications are the *last* objects in the backup
//! order, the † property always holds (`#X < #A` for every input `X`), so
//! the tree-mode decision rule never needs Iw/oF — zero extra logging. The
//! [`apps_last_config`] helper builds exactly that layout: a data partition
//! swept first and an application partition swept last, one sequential
//! domain. [`apps_first_config`] builds the adversarial layout for
//! comparison.

use lob_core::{Discipline, Engine, EngineConfig, EngineError, GraphMode, Tracking};
use lob_ops::{LogicalOp, OpBody, PhysioOp};
use lob_pagestore::{PageId, PartitionId, PartitionSpec};

/// Partition holding ordinary data pages in the two-partition layouts.
pub const DATA_PARTITION: PartitionId = PartitionId(0);
/// Partition holding application state pages.
pub const APP_PARTITION: PartitionId = PartitionId(1);

fn two_partition_config(
    data_pages: u32,
    app_pages: u32,
    page_size: usize,
    order: Vec<PartitionId>,
) -> EngineConfig {
    EngineConfig {
        page_size,
        partitions: vec![
            PartitionSpec { pages: data_pages },
            PartitionSpec { pages: app_pages },
        ],
        discipline: Discipline::Tree,
        graph_mode: GraphMode::Refined,
        tracking: Tracking::Sequential(order),
        cache_capacity: None,
        policy: lob_core::BackupPolicy::Protocol,
        log: lob_core::LogBacking::Memory,
        ..EngineConfig::small()
    }
}

/// Engine configuration with the application partition **last** in the
/// backup order (§6.2: no Iw/oF ever needed for application reads).
pub fn apps_last_config(data_pages: u32, app_pages: u32, page_size: usize) -> EngineConfig {
    two_partition_config(
        data_pages,
        app_pages,
        page_size,
        vec![DATA_PARTITION, APP_PARTITION],
    )
}

/// Engine configuration with the application partition **first** — the
/// adversarial ordering: every input page read by an application sits
/// *after* the application in the backup order, violating †.
pub fn apps_first_config(data_pages: u32, app_pages: u32, page_size: usize) -> EngineConfig {
    two_partition_config(
        data_pages,
        app_pages,
        page_size,
        vec![APP_PARTITION, DATA_PARTITION],
    )
}

/// A recoverable application: one state page.
#[derive(Debug, Clone, Copy)]
pub struct Application {
    state: PageId,
}

impl Application {
    /// Launch an application: allocates its state page and logs an initial
    /// execution step so the page has a recoverable state.
    pub fn launch(engine: &mut Engine, partition: PartitionId) -> Result<Application, EngineError> {
        let state = engine.alloc_page(partition)?;
        let app = Application { state };
        app.exec(engine, 0)?;
        Ok(app)
    }

    /// Adopt an existing state page (after recovery).
    pub fn attach(state: PageId) -> Application {
        Application { state }
    }

    /// The application's state page.
    pub fn state_page(&self) -> PageId {
        self.state
    }

    /// `Ex(A)`: an execution interval. `salt` captures the interval's
    /// nondeterminism so replay is deterministic.
    pub fn exec(&self, engine: &mut Engine, salt: u64) -> Result<(), EngineError> {
        engine.execute(OpBody::Physio(PhysioOp::AppExec {
            app: self.state,
            salt,
        }))?;
        Ok(())
    }

    /// `R(X, A)`: read input page `src` into the application state.
    pub fn read(&self, engine: &mut Engine, src: PageId) -> Result<(), EngineError> {
        engine.execute(OpBody::Logical(LogicalOp::AppRead {
            src,
            app: self.state,
        }))?;
        Ok(())
    }

    /// `W_L(A, X)`: write a fresh output page derived from the application
    /// state. Returns the output page.
    pub fn write_output(
        &self,
        engine: &mut Engine,
        partition: PartitionId,
    ) -> Result<PageId, EngineError> {
        let dst = engine.alloc_page(partition)?;
        engine.execute(OpBody::Logical(LogicalOp::AppWrite {
            app: self.state,
            dst,
        }))?;
        Ok(dst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn data_page_write(engine: &mut Engine, page: PageId, fill: u8) {
        let size = engine.config().page_size;
        engine
            .execute(OpBody::PhysicalWrite {
                target: page,
                value: Bytes::from(vec![fill; size]),
            })
            .unwrap();
    }

    #[test]
    fn app_lifecycle() {
        let mut e = Engine::new(apps_last_config(32, 4, 128)).unwrap();
        let app = Application::launch(&mut e, APP_PARTITION).unwrap();
        let input = e.alloc_page(DATA_PARTITION).unwrap();
        data_page_write(&mut e, input, 7);
        app.read(&mut e, input).unwrap();
        app.exec(&mut e, 42).unwrap();
        let out = app.write_output(&mut e, DATA_PARTITION).unwrap();
        let v = e.read_page(out).unwrap();
        assert!(!v.lsn().is_null());
        assert!(v.data().iter().any(|&b| b != 0));
    }

    #[test]
    fn app_state_is_recoverable() {
        let mut e = Engine::new(apps_last_config(32, 4, 128)).unwrap();
        let app = Application::launch(&mut e, APP_PARTITION).unwrap();
        let input = e.alloc_page(DATA_PARTITION).unwrap();
        data_page_write(&mut e, input, 9);
        app.read(&mut e, input).unwrap();
        app.exec(&mut e, 5).unwrap();
        let expect = e.read_page(app.state_page()).unwrap();
        e.force_log().unwrap();
        e.crash();
        e.recover().unwrap();
        let got = e.read_page(app.state_page()).unwrap();
        assert_eq!(got.data(), expect.data());
    }

    #[test]
    fn read_creates_flush_dependency() {
        // R(X, A) then update X: A's node must flush before X's.
        let mut e = Engine::new(apps_last_config(32, 4, 128)).unwrap();
        let app = Application::launch(&mut e, APP_PARTITION).unwrap();
        e.flush_all().unwrap();
        let x = e.alloc_page(DATA_PARTITION).unwrap();
        data_page_write(&mut e, x, 1);
        e.flush_all().unwrap();
        app.read(&mut e, x).unwrap();
        data_page_write(&mut e, x, 2); // blind overwrite of X
                                       // Flushing X must first flush A (write-graph ancestor).
        e.flush_page(x).unwrap();
        assert!(
            !e.cache().is_dirty(app.state_page()),
            "application flushed before its input's overwrite"
        );
    }

    #[test]
    fn apps_last_order_puts_apps_at_the_end() {
        let e = Engine::new(apps_last_config(32, 4, 128)).unwrap();
        let coord = e.coordinator();
        let data_pos = coord.pos(PageId::new(0, 31)).unwrap();
        let app_pos = coord.pos(PageId::new(1, 0)).unwrap();
        assert_eq!(data_pos.0, app_pos.0, "one sequential domain");
        assert!(app_pos.1 > data_pos.1, "apps after all data pages");

        let e2 = Engine::new(apps_first_config(32, 4, 128)).unwrap();
        let coord2 = e2.coordinator();
        assert!(
            coord2.pos(PageId::new(1, 0)).unwrap().1 < coord2.pos(PageId::new(0, 0)).unwrap().1
        );
    }

    #[test]
    fn apps_last_needs_no_iwof_during_backup() {
        // §6.2's claim, end to end: with applications last, application
        // reads never force Iw/oF when their pages flush mid-backup.
        let mut e = Engine::new(apps_last_config(32, 4, 128)).unwrap();
        let app = Application::launch(&mut e, APP_PARTITION).unwrap();
        let inputs: Vec<PageId> = (0..8)
            .map(|_| e.alloc_page(DATA_PARTITION).unwrap())
            .collect();
        for (i, &p) in inputs.iter().enumerate() {
            data_page_write(&mut e, p, i as u8 + 1);
        }
        e.flush_all().unwrap();

        let mut run = e.begin_backup(4).unwrap();
        e.backup_step(&mut run).unwrap(); // data pages 0..9 done
        for &p in &inputs {
            app.read(&mut e, p).unwrap();
            app.exec(&mut e, p.index as u64).unwrap();
        }
        // Flush the application mid-backup: its successors are all data
        // pages with lower positions — † holds — no identity write.
        e.flush_page(app.state_page()).unwrap();
        assert_eq!(e.stats().iwof_records, 0, "§6.2: zero Iw/oF");
        while !e.backup_step(&mut run).unwrap() {}
        let image = e.complete_backup(run).unwrap();

        // And the backup is genuinely recoverable.
        let expect = e.read_page(app.state_page()).unwrap();
        e.store().fail_partition(APP_PARTITION).unwrap();
        e.media_recover(&image).unwrap();
        assert_eq!(e.read_page(app.state_page()).unwrap().data(), expect.data());
    }

    #[test]
    fn apps_first_forces_iwof() {
        // The adversarial ordering: the application is copied first; when
        // it flushes mid-backup its successors lie *after* it → Iw/oF.
        let mut e = Engine::new(apps_first_config(32, 4, 128)).unwrap();
        let app = Application::launch(&mut e, APP_PARTITION).unwrap();
        // Put the input late in the data partition so it is still pending
        // when the application (copied first) flushes.
        e.reserve_pages(DATA_PARTITION, 24);
        let input = e.alloc_page(DATA_PARTITION).unwrap();
        data_page_write(&mut e, input, 3);
        e.flush_all().unwrap();

        let mut run = e.begin_backup(4).unwrap();
        e.backup_step(&mut run).unwrap(); // application partition copied
        app.read(&mut e, input).unwrap();
        e.flush_page(app.state_page()).unwrap();
        assert!(
            e.stats().iwof_records >= 1,
            "application in Done, input pending → identity write required"
        );
        while !e.backup_step(&mut run).unwrap() {}
        e.complete_backup(run).unwrap();
    }
}
