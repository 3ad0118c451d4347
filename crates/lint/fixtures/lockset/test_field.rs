//! Test-only fields and struct-literal entries. Each ends at its
//! comma, so the production code after it is still analysed: `run`,
//! called under a guard, both panics and dispatches. A generic test fn
//! still covers its whole body. The expected lines live in
//! `tests/fixtures.rs`.

use std::sync::Mutex;

struct Pol;

impl Pol {
    fn map_indexed(&self, n: usize) -> usize {
        n
    }
}

struct Detector {
    width: usize,
    #[cfg(test)]
    oracle: bool,
}

impl Detector {
    fn new(width: usize) -> Self {
        Self {
            width,
            #[cfg(test)]
            oracle: false,
        }
    }

    fn run(&self, pol: &Pol) -> usize {
        assert!(self.width > 0, "width");
        pol.map_indexed(self.width)
    }
}

struct Host {
    detector: Mutex<Detector>,
}

impl Host {
    fn step(&self, pol: &Pol) -> usize {
        let d = self.detector.lock().expect("detector");
        let n = d.run(pol);
        drop(d);
        n
    }
}

#[test]
fn generic_test<A, B>() {
    let host = Host { detector: Mutex::new(Detector::new(1)) };
    let d = host.detector.lock().expect("detector");
    assert!(d.run(&Pol) > 0);
}
