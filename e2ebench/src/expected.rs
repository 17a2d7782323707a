//! Output hashes and simulated-time bits recorded for the default seed
//! (2015). Pixels and simulated seconds are bit-identical across SIMD
//! backends and hosts, so these hold everywhere; a change that alters them
//! changes what the program computes.

use crate::workloads::Workload;

/// The stored outcome of one workload at the default seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    /// FNV-1a 64 of the output: the PGM bytes and summary text (CLI), the
    /// `f32` bits of the frame (stream), the kept outputs and shed ids of
    /// the checked prefix (service).
    pub output_hash: u64,
    /// `f64` bits of the simulated frame milliseconds (CLI, stream), or the
    /// hash of the replay's deterministic counters (service).
    pub sim_bits: u64,
}

/// The stored outcome of `w`.
pub fn for_workload(w: Workload) -> Expected {
    let (output_hash, sim_bits) = match w {
        Workload::Cli1024 => (0x37f0_b897_787c_3836, 0x4006_a98e_0fe2_f222),
        Workload::CliRagged => (0xef29_6fab_7a34_4153, 0x4003_58a3_55f1_61a7),
        Workload::Stream4096 => (0xf003_a045_176c_408e, 0x4040_e7f7_7643_be06),
        Workload::ServeZipf => (0x469f_bd90_c21c_0314, 0xb6ec_ecac_d7d4_aa6f),
    };
    Expected {
        output_hash,
        sim_bits,
    }
}
