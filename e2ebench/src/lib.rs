//! # sharpness-e2ebench — the end-to-end benchmark of the sharpness
//! reproduction
//!
//! Four workloads ([`workloads::Workload`]) drive the system from outside
//! through its public functions: the `sharpen` CLI path
//! (`sharpness::cli::run`) on two image shapes, a steady-state
//! `PipelinePlan::run_into` stream, and `SharpenService::serve` replays.
//! Every operation's output is hashed and checked. A traced pass splits
//! the same work into layers. [`results`] aggregates runs into result files
//! and compares two of them against the regression bounds of
//! [`metrics::METRICS`]. See `BENCHMARK.md` for how to run it.

#![warn(missing_docs)]

pub mod expected;
pub mod json;
pub mod metrics;
pub mod results;
pub mod stats;
pub mod workloads;

/// Incremental FNV-1a 64 hash of output bytes and words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

impl Fnv {
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// The FNV-1a offset basis.
    pub fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    /// Mixes in `b`, one byte at a time.
    pub fn bytes(mut self, b: &[u8]) -> Fnv {
        for &x in b {
            self.0 = (self.0 ^ u64::from(x)).wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Mixes in the bits of each `f32` as one 32-bit word (four times
    /// fewer steps than byte-wise, which matters at 4096²).
    pub fn f32s(mut self, v: &[f32]) -> Fnv {
        for x in v {
            self.0 = (self.0 ^ u64::from(x.to_bits())).wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Mixes in the little-endian bytes of `v`.
    pub fn u64(self, v: u64) -> Fnv {
        self.bytes(&v.to_le_bytes())
    }

    /// The hash.
    pub fn finish(self) -> u64 {
        self.0
    }
}
