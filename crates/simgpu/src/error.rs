//! Error types for the simulated GPU runtime.

use std::fmt;

/// Result alias used throughout `simgpu`.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors raised by the simulated OpenCL-like runtime.
///
/// These mirror the failure classes a real OpenCL host program has to
/// handle: invalid launch geometry, buffer shape mismatches, out-of-bounds
/// transfers, and (unique to the simulator) write races detected by the
/// validation layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// The global NDRange size is not divisible by the work-group size.
    InvalidNdRange {
        /// Kernel name the launch was for.
        kernel: String,
        /// Requested global size (x, y).
        global: [usize; 2],
        /// Requested group size (x, y).
        group: [usize; 2],
    },
    /// A work-group size of zero was requested.
    EmptyGroup {
        /// Kernel name the launch was for.
        kernel: String,
    },
    /// A kernel was handed arguments that violate its shape preconditions
    /// (wrong padding, a stride that is not vec4-aligned, a buffer too
    /// small for the geometry). Returned to the caller as a typed error
    /// instead of panicking inside the dispatch, which would surface as an
    /// opaque [`Error::KernelPanic`] via the sanitizer's `catch_unwind`.
    InvalidKernelArgs {
        /// Kernel the arguments were for.
        kernel: String,
        /// Human-readable description of the violated precondition.
        detail: String,
    },
    /// A transfer touched bytes outside the buffer.
    TransferOutOfBounds {
        /// Human-readable operation name ("write", "read", "rect-write", ...).
        op: &'static str,
        /// Buffer length in elements.
        buffer_len: usize,
        /// First element index that was out of bounds.
        offending_index: usize,
    },
    /// A rectangular transfer described a region inconsistent with the
    /// host slice that backs it.
    RectShapeMismatch {
        /// Rows requested.
        rows: usize,
        /// Row length in elements.
        row_len: usize,
        /// Length of the host slice provided.
        host_len: usize,
    },
    /// Two work-items stored to the same global element during one kernel
    /// dispatch. Only detected when `Context::with_validation` is enabled.
    WriteRace {
        /// Kernel in which the race occurred.
        kernel: String,
        /// Element index that was written more than once.
        index: usize,
    },
    /// A kernel read an element that no work-item had initialised and the
    /// buffer was created uninitialised. Only detected under validation.
    UninitialisedRead {
        /// Kernel in which the read occurred.
        kernel: String,
        /// Element index read.
        index: usize,
    },
    /// Mapping a buffer that is already mapped.
    AlreadyMapped,
    /// Unmapping a buffer that is not mapped.
    NotMapped,
    /// A kernel closure panicked during dispatch (for example on an
    /// out-of-bounds access assertion). The dispatch is abandoned, no
    /// command is recorded, and the panic message is preserved so callers
    /// can surface it instead of aborting the process.
    KernelPanic {
        /// Kernel whose closure panicked.
        kernel: String,
        /// The panic payload, rendered as a string.
        message: String,
    },
    /// The static access checker rejected a dispatch: an out-of-bounds or
    /// overlapping declared window, an accounting mismatch, or a
    /// declaration that does not match its dispatch. See [`crate::access::AccessError`] for the verdicts.
    Access(crate::access::AccessError),
}

impl From<crate::access::AccessError> for Error {
    fn from(e: crate::access::AccessError) -> Self {
        Error::Access(e)
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::InvalidNdRange { kernel, global, group } => write!(
                f,
                "kernel `{kernel}`: global size {global:?} not divisible by group size {group:?}"
            ),
            Error::EmptyGroup { kernel } => {
                write!(f, "kernel `{kernel}`: work-group size must be non-zero")
            }
            Error::InvalidKernelArgs { kernel, detail } => {
                write!(f, "kernel `{kernel}`: invalid arguments: {detail}")
            }
            Error::TransferOutOfBounds { op, buffer_len, offending_index } => write!(
                f,
                "{op}: element index {offending_index} out of bounds for buffer of {buffer_len} elements"
            ),
            Error::RectShapeMismatch { rows, row_len, host_len } => write!(
                f,
                "rect transfer of {rows} rows x {row_len} elements does not match host slice of {host_len} elements"
            ),
            Error::WriteRace { kernel, index } => write!(
                f,
                "kernel `{kernel}`: write race detected at element {index} (two work-items stored to the same global location)"
            ),
            Error::UninitialisedRead { kernel, index } => write!(
                f,
                "kernel `{kernel}`: read of uninitialised element {index}"
            ),
            Error::AlreadyMapped => write!(f, "buffer is already mapped"),
            Error::NotMapped => write!(f, "buffer is not mapped"),
            Error::KernelPanic { kernel, message } => {
                write!(f, "kernel `{kernel}` panicked during dispatch: {message}")
            }
            Error::Access(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_contains_kernel_name() {
        let e = Error::InvalidNdRange {
            kernel: "sobel".into(),
            global: [100, 100],
            group: [16, 16],
        };
        let s = e.to_string();
        assert!(s.contains("sobel"));
        assert!(s.contains("[100, 100]"));
    }

    #[test]
    fn display_write_race() {
        let e = Error::WriteRace {
            kernel: "k".into(),
            index: 42,
        };
        assert!(e.to_string().contains("42"));
    }

    #[test]
    fn errors_are_comparable() {
        assert_eq!(Error::AlreadyMapped, Error::AlreadyMapped);
        assert_ne!(Error::AlreadyMapped, Error::NotMapped);
    }
}
