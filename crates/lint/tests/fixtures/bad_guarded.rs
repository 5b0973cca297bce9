//! Fixture: an Arc-shared lock-owning struct with a broken lock
//! discipline — `bump` takes the gate, `bump_unlocked` touches the
//! same field without it.

use std::sync::{Arc, Mutex};

pub struct UnguardedTally {
    gate: Mutex<()>,
    hits: u64,
}

pub fn share(t: UnguardedTally) -> Arc<UnguardedTally> {
    Arc::new(t)
}

impl UnguardedTally {
    pub fn bump(&mut self) {
        let _g = self.gate.lock().unwrap();
        self.hits += 1;
    }

    pub fn bump_unlocked(&mut self) {
        self.hits += 1;
    }
}
