//! Streaming (multi-frame) execution with double-buffered transfers.
//!
//! The paper processes one image per host round-trip; its motivating
//! applications (TV, camera, video) process *streams*. With two device
//! buffers per matrix and separate upload/download DMA engines — standard
//! on the W8000's generation — frame `i+1`'s upload and frame `i-1`'s
//! download overlap frame `i`'s kernels. This module models that overlap
//! on top of [`GpuPipeline`]: per frame it splits the simulated command
//! timeline into the upload, compute (kernels + host stages + sync) and
//! download components, then runs the classic three-stage pipeline
//! recurrence to obtain the steady-state frame time.
//!
//! This is an extension beyond the paper (its Section VII generalisation
//! claim applied to "other image processing algorithms with multiple
//! steps"); the serial time it is compared against is exactly the paper's
//! model.

use imagekit::ImageF32;

use crate::gpu::pipeline::GpuPipeline;
use crate::report::{classify_stage_lane, RunReport, StageLane};

/// Per-frame time decomposition used by the overlap model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameComponents {
    /// Host→device transfer time (uploads: bulk, rect, map-writes).
    pub upload_s: f64,
    /// Device kernels + host-side stages + synchronisation.
    pub compute_s: f64,
    /// Device→host transfer time (reads, map-reads).
    pub download_s: f64,
}

impl FrameComponents {
    /// Splits a pipeline run's stage records into the three lanes using
    /// the shared [`classify_stage_lane`] classifier.
    pub fn from_report(report: &RunReport) -> Self {
        let mut c = FrameComponents {
            upload_s: 0.0,
            compute_s: 0.0,
            download_s: 0.0,
        };
        for s in &report.stages {
            match classify_stage_lane(&s.name) {
                StageLane::Upload => c.upload_s += s.seconds,
                StageLane::Compute => c.compute_s += s.seconds,
                StageLane::Download => c.download_s += s.seconds,
            }
        }
        c
    }

    /// Serial (non-overlapped) frame time.
    pub fn total(&self) -> f64 {
        self.upload_s + self.compute_s + self.download_s
    }
}

/// Result of a streamed run.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Sharpened frames, in input order.
    pub outputs: Vec<ImageF32>,
    /// Per-frame components.
    pub frames: Vec<FrameComponents>,
    /// Total simulated time without overlap (the paper's serial model).
    pub serial_s: f64,
    /// Total simulated time with double-buffered overlap.
    pub pipelined_s: f64,
}

impl StreamReport {
    /// Steady-state throughput in frames/second under overlap.
    pub fn fps(&self) -> f64 {
        if self.pipelined_s <= 0.0 {
            0.0
        } else {
            self.frames.len() as f64 / self.pipelined_s
        }
    }

    /// Speedup of overlapped streaming over serial processing.
    pub fn overlap_speedup(&self) -> f64 {
        if self.pipelined_s <= 0.0 {
            1.0
        } else {
            self.serial_s / self.pipelined_s
        }
    }
}

/// The three-stage overlap recurrence, folded one frame at a time: upload
/// engine, compute, and download engine each process frames in order, a
/// frame entering a stage only after leaving the previous one. Folding
/// keeps a stream of any length in constant memory.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Overlap {
    up_free: f64,
    dev_free: f64,
    down_free: f64,
}

impl Overlap {
    /// Admits the next frame of the stream.
    pub fn push(&mut self, f: &FrameComponents) {
        self.up_free += f.upload_s;
        self.dev_free = self.up_free.max(self.dev_free) + f.compute_s;
        self.down_free = self.dev_free.max(self.down_free) + f.download_s;
    }

    /// Completion time of the last admitted frame.
    pub fn total_s(&self) -> f64 {
        self.down_free
    }
}

/// Computes the pipelined completion time of a frame sequence given the
/// per-frame components (the [`Overlap`] recurrence over all of them).
pub fn pipelined_time(frames: &[FrameComponents]) -> f64 {
    let mut o = Overlap::default();
    for f in frames {
        o.push(f);
    }
    o.total_s()
}

/// Streaming wrapper around a [`GpuPipeline`].
#[derive(Clone)]
pub struct StreamingPipeline {
    inner: GpuPipeline,
}

impl StreamingPipeline {
    /// Wraps a configured pipeline.
    pub fn new(inner: GpuPipeline) -> Self {
        StreamingPipeline { inner }
    }

    /// The wrapped pipeline.
    pub fn pipeline(&self) -> &GpuPipeline {
        &self.inner
    }

    /// Processes every frame, returning outputs plus serial and
    /// overlapped total times.
    ///
    /// # Errors
    /// Propagates the first frame failure (shape/parameter errors).
    pub fn run_stream(&self, frames: &[ImageF32]) -> Result<StreamReport, String> {
        let mut outputs = Vec::with_capacity(frames.len());
        let mut comps = Vec::with_capacity(frames.len());
        let mut serial = 0.0;
        for frame in frames {
            let report = self.inner.run(frame)?;
            serial += report.total_s;
            comps.push(FrameComponents::from_report(&report));
            outputs.push(report.output);
        }
        let pipelined_s = pipelined_time(&comps);
        Ok(StreamReport {
            outputs,
            frames: comps,
            serial_s: serial,
            pipelined_s,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gpu::opts::OptConfig;
    use crate::params::SharpnessParams;
    use imagekit::generate;
    use simgpu::context::Context;
    use simgpu::device::DeviceSpec;

    fn pipeline(opts: OptConfig) -> StreamingPipeline {
        StreamingPipeline::new(GpuPipeline::new(
            Context::new(DeviceSpec::firepro_w8000()),
            SharpnessParams::default(),
            opts,
        ))
    }

    #[test]
    fn single_frame_has_no_overlap_benefit() {
        let f = [FrameComponents {
            upload_s: 2.0,
            compute_s: 3.0,
            download_s: 1.0,
        }];
        assert!((pipelined_time(&f) - 6.0).abs() < 1e-12);
    }

    #[test]
    fn steady_state_is_bottleneck_bound() {
        // N identical frames: total -> fill + N * max(stage).
        let c = FrameComponents {
            upload_s: 2.0,
            compute_s: 5.0,
            download_s: 1.0,
        };
        let frames = vec![c; 100];
        let t = pipelined_time(&frames);
        let lower = 100.0 * 5.0;
        let upper = 100.0 * 5.0 + 2.0 + 1.0;
        assert!(t >= lower && t <= upper + 1e-9, "{t}");
    }

    #[test]
    fn pipelining_never_slower_and_never_faster_than_bottleneck() {
        let frames = vec![
            FrameComponents {
                upload_s: 1.0,
                compute_s: 2.0,
                download_s: 3.0,
            },
            FrameComponents {
                upload_s: 3.0,
                compute_s: 1.0,
                download_s: 2.0,
            },
            FrameComponents {
                upload_s: 2.0,
                compute_s: 3.0,
                download_s: 1.0,
            },
        ];
        let serial: f64 = frames.iter().map(FrameComponents::total).sum();
        let t = pipelined_time(&frames);
        assert!(t <= serial + 1e-12);
        for lane in [
            frames.iter().map(|f| f.upload_s).sum::<f64>(),
            frames.iter().map(|f| f.compute_s).sum::<f64>(),
            frames.iter().map(|f| f.download_s).sum::<f64>(),
        ] {
            assert!(t >= lane - 1e-12);
        }
    }

    #[test]
    fn stream_outputs_match_single_runs() {
        let frames: Vec<_> = (0..3).map(|i| generate::natural(64, 64, 50 + i)).collect();
        let sp = pipeline(OptConfig::all());
        let stream = sp.run_stream(&frames).unwrap();
        assert_eq!(stream.outputs.len(), 3);
        for (frame, out) in frames.iter().zip(&stream.outputs) {
            let single = sp.pipeline().run(frame).unwrap();
            assert_eq!(&single.output, out);
        }
        assert!(stream.pipelined_s <= stream.serial_s);
        assert!(stream.overlap_speedup() >= 1.0);
        assert!(stream.fps() > 0.0);
    }

    #[test]
    fn transfer_heavy_streams_benefit_most() {
        // The optimized pipeline is transfer-dominated (f32 frames over
        // PCI-E), so overlap buys a solid speedup on long streams.
        let frames: Vec<_> = (0..6).map(|i| generate::natural(128, 128, i)).collect();
        let stream = pipeline(OptConfig::all()).run_stream(&frames).unwrap();
        assert!(
            stream.overlap_speedup() > 1.2,
            "expected >1.2x from overlap, got {:.2}",
            stream.overlap_speedup()
        );
    }

    #[test]
    fn component_split_accounts_everything() {
        let img = generate::natural(64, 64, 9);
        let run = pipeline(OptConfig::all()).pipeline().run(&img).unwrap();
        let c = FrameComponents::from_report(&run);
        assert!((c.total() - run.total_s).abs() < 1e-12);
        assert!(c.upload_s > 0.0 && c.compute_s > 0.0 && c.download_s > 0.0);
    }
}
