//! `.flush()` under a guard. A workspace method that merely shares the
//! name of a blocking call does no I/O, so it reports nothing; the
//! same call on a `File` still blocks. The expected lines live in
//! `tests/fixtures.rs`.

use std::fs::File;
use std::io::Write;
use std::sync::Mutex;

struct Ledger {
    pending: Vec<u64>,
}

impl Ledger {
    /// Counts what is pending; no I/O despite the name.
    fn flush(&self) -> usize {
        self.pending.len()
    }
}

struct Books {
    ledger: Mutex<Ledger>,
}

impl Books {
    fn workspace_flush_under_guard_is_clean(&self, spare: &Ledger) -> usize {
        let g = self.ledger.lock().expect("ledger");
        let n = spare.flush();
        drop(g);
        n
    }

    fn file_flush_under_guard_blocks(&self, file: &mut File) {
        let g = self.ledger.lock().expect("ledger");
        let _ = file.flush();
        drop(g);
    }
}
