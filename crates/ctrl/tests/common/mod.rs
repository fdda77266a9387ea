//! Golden pins shared by the control loop's integration tests: a decision
//! log is pinned by its byte length and its FNV-1a-64 digest, so a test
//! can hold the loop to byte-identical decisions without committing the
//! log itself.

use std::fmt;

/// Byte length plus FNV-1a-64 digest of one serialised artefact.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Pin {
    len: usize,
    fnv: u64,
}

impl Pin {
    /// A pin with known length and digest.
    pub const fn new(len: usize, fnv: u64) -> Pin {
        Pin { len, fnv }
    }

    /// The pin of `bytes`.
    pub fn of(bytes: &[u8]) -> Pin {
        let fnv = bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        });
        Pin::new(bytes.len(), fnv)
    }
}

/// Prints as the constructor call, so a moved pin's failure message can
/// be read (and, after review, pasted) directly.
impl fmt::Debug for Pin {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pin::new({}, {:#018x})", self.len, self.fnv)
    }
}

/// Asserts every pin at once, listing all actual values on a mismatch.
pub fn assert_pins(what: &str, actual: &[Pin], expected: &[Pin]) {
    assert_eq!(
        actual, expected,
        "{what}: decision log moved off its golden pins; actual pins: {actual:?}"
    );
}
