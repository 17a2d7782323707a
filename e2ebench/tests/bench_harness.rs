//! Harness checks: statistics, input determinism, output checking,
//! `compare`, the metric table against `BENCHMARK.json`, and one-operation
//! smoke runs (4096² is left to the release benchmark).

use std::path::PathBuf;

use sharpness::cli;
use sharpness::imagekit::io;
use sharpness_e2ebench::expected;
use sharpness_e2ebench::json::{self, Value};
use sharpness_e2ebench::metrics::{self, Level, Report, METRICS};
use sharpness_e2ebench::results::{self, HostStamp, RunSet, Verdict};
use sharpness_e2ebench::stats::{has_ten_beyond, median, percentile, quartiles};
use sharpness_e2ebench::workloads::{self, Config, Workload, DEFAULT_SEED};

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
    let xs: Vec<f64> = (1..=10).map(f64::from).collect();
    assert_eq!(quartiles(&xs), [2.75, 5.5, 8.25]);
    // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
    assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
    assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
    assert_eq!(quartiles(&[4.0]), [4.0; 3]);
    assert_eq!(median(&[5.0, 1.0, 3.0, 2.0]), 2.5);
}

#[test]
fn percentiles_interpolate_and_tails_need_ten_samples_beyond() {
    let xs: Vec<f64> = (0..=100).map(f64::from).collect();
    assert_eq!(percentile(&xs, 0.95), 95.0);
    assert_eq!(percentile(&xs, 0.5), 50.0);
    assert_eq!(percentile(&[1.0, 2.0], 0.5), 1.5);
    assert!(has_ten_beyond(200, 0.95));
    assert!(!has_ten_beyond(199, 0.95));
    assert!(has_ten_beyond(20, 0.5));
    assert!(!has_ten_beyond(8, 0.95));
}

#[test]
fn same_seed_same_inputs_and_another_seed_other_inputs() {
    for w in [Workload::Cli1024, Workload::CliRagged] {
        let a = workloads::input_frame(w, 7).to_u8();
        let b = workloads::input_frame(w, 7).to_u8();
        let c = workloads::input_frame(w, 8).to_u8();
        assert_eq!(a.pixels(), b.pixels(), "{}", w.name());
        assert_ne!(a.pixels(), c.pixels(), "{}", w.name());
    }
    let a = workloads::serve_requests(7, 64);
    assert_eq!(a, workloads::serve_requests(7, 64));
    assert_ne!(a, workloads::serve_requests(8, 64));
}

#[test]
fn the_stored_hash_catches_one_flipped_output_byte() {
    let dir = scratch("flipped_byte");
    let (input, output) = (dir.join("in.pgm"), dir.join("out.pgm"));
    let frame = workloads::input_frame(Workload::CliRagged, DEFAULT_SEED);
    io::write_pgm(&input, &frame.to_u8()).unwrap();
    let args =
        cli::parse_args(&[input.display().to_string(), output.display().to_string()]).unwrap();
    let summary = cli::run(&args).unwrap();
    let mut bytes = std::fs::read(&output).unwrap();
    let want = expected::for_workload(Workload::CliRagged).output_hash;
    assert_eq!(workloads::cli_output_hash(&bytes, &summary), want);
    for i in [0, bytes.len() / 2, bytes.len() - 1] {
        bytes[i] ^= 1;
        assert_ne!(
            workloads::cli_output_hash(&bytes, &summary),
            want,
            "byte {i}"
        );
        bytes[i] ^= 1;
    }
    let img = workloads::decode_pgm(&bytes).unwrap();
    assert_eq!((img.width(), img.height()), (1001, 701));
    assert!(workloads::decode_pgm(&bytes[..bytes.len() - 1]).is_err());
}

/// A detail line with the given end-to-end values, as a run prints it.
fn detail(p50: f64, fps: f64, sim_ms: f64) -> Value {
    json::parse(&format!(
        "{{\"workload\":\"cli_1024\",\"correct\":true,\"metrics\":{{\
         \"frame_ms.p50\":{{\"value\":{p50},\"unit\":\"ms\",\"n\":100}},\
         \"frames_per_s\":{{\"value\":{fps},\"unit\":\"1/s\",\"n\":100}},\
         \"sim_ms\":{{\"value\":{sim_ms},\"unit\":\"ms\",\"n\":1}}}}}}"
    ))
    .unwrap()
}

fn run_set(scale: f64, sim_ms: f64, nproc: usize) -> String {
    let runs = [10.0, 10.1, 9.9, 10.05, 9.95]
        .iter()
        .map(|&ms| detail(ms * scale, 1000.0 / (ms * scale), sim_ms))
        .collect();
    RunSet {
        host: HostStamp {
            nproc,
            cpu_features: "sse2".to_string(),
            simd_backend: "sse2".to_string(),
            rustc: "rustc".to_string(),
            commit: "unknown".to_string(),
        },
        seed: DEFAULT_SEED,
        seconds: 1.0,
        traced: false,
        workloads: vec![("cli_1024".to_string(), runs)],
    }
    .render()
}

#[test]
fn compare_passes_identical_sets_and_flags_a_20_percent_regression() {
    let base = run_set(1.0, 2.5, 2);
    let same = results::compare(&base, &base).unwrap();
    assert_eq!(same.len(), 3);
    assert!(same.iter().all(|r| r.verdict == Verdict::Ok), "{same:?}");

    let slower = results::compare(&base, &run_set(1.2, 2.5, 2)).unwrap();
    let verdict =
        |rows: &[results::Row], m: &str| rows.iter().find(|r| r.metric == m).unwrap().verdict;
    assert_eq!(verdict(&slower, "frame_ms.p50"), Verdict::Regressed);
    assert_eq!(verdict(&slower, "frames_per_s"), Verdict::Regressed);
    assert!(results::render_rows(&slower).contains("REGRESSED"));

    let faster = results::compare(&base, &run_set(0.8, 2.5, 2)).unwrap();
    assert_eq!(verdict(&faster, "frame_ms.p50"), Verdict::Improved);

    let drifted = results::compare(&base, &run_set(1.0, 2.5000001, 2)).unwrap();
    assert_eq!(verdict(&drifted, "sim_ms"), Verdict::Differs);
}

#[test]
fn compare_marks_wide_spreads_unresolved_and_refuses_other_hosts() {
    let a = results::Summary {
        median: 10.0,
        q1: 8.0,
        q3: 12.0,
        n: 10,
    };
    let b = results::Summary {
        median: 13.0,
        q1: 12.9,
        q3: 13.1,
        n: 10,
    };
    assert_eq!(
        results::judge("frame_ms.p50", Some(a), Some(b)),
        Verdict::Unresolved
    );
    assert_eq!(
        results::judge("frame_ms.p50", Some(b), None),
        Verdict::Missing
    );
    assert_eq!(
        results::judge("io.decode_ms", Some(a), Some(b)),
        Verdict::Info
    );
    let err = results::compare(&run_set(1.0, 2.5, 2), &run_set(1.0, 2.5, 4)).unwrap_err();
    assert!(err.contains("host stamps differ"), "{err}");
}

#[test]
fn benchmark_json_declares_the_metric_table() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Value::arr)
            .unwrap()
            .iter()
            .map(|v| v.get("name").and_then(Value::str).unwrap().to_string())
            .collect()
    };
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names("workloads"), workloads);
    for (key, level) in [("end_to_end", Level::EndToEnd), ("per_layer", Level::Layer)] {
        let declared: Vec<&str> = metrics::driver_metrics(level == Level::Layer)
            .map(|d| d.name)
            .collect();
        assert_eq!(names(key), declared, "{key}");
        for entry in doc.get(key).and_then(Value::arr).unwrap() {
            let d = metrics::def(entry.get("name").and_then(Value::str).unwrap());
            assert_eq!(entry.get("unit").and_then(Value::str), Some(d.unit));
            assert_eq!(
                entry.get("better").and_then(Value::str),
                Some(d.better.label())
            );
            if level == Level::EndToEnd {
                assert_eq!(entry.get("bound").and_then(Value::num), d.bound);
            }
        }
    }
    assert!(METRICS
        .iter()
        .filter(|d| d.report == Report::Driver && d.name != "setup_s")
        .all(|d| d.bound.unwrap_or(0.0) < metrics::def("setup_s").bound.unwrap()));
}

fn smoke(w: Workload, serve_requests: usize) -> workloads::RunRecord {
    let cfg = Config {
        seed: DEFAULT_SEED,
        seconds: 0.0,
        traced: true,
        serve_requests,
        dir: scratch(w.name()),
    };
    let rec = workloads::run(w, &cfg, &[0.01]).unwrap();
    assert!(rec.correct(), "{}: {:?}", w.name(), rec.problems);
    for traced in [false, true] {
        for d in metrics::driver_metrics(traced) {
            assert!(
                rec.get(d.name).is_some_and(f64::is_finite),
                "{} lacks {}",
                w.name(),
                d.name
            );
        }
    }
    let line = json::parse(&results::driver_line(&rec)).unwrap();
    assert_eq!(line.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(line.get("failed").and_then(Value::num), Some(0.0));
    rec
}

#[test]
fn one_operation_of_cli_ragged_is_correct_and_reports_every_metric() {
    let rec = smoke(Workload::CliRagged, workloads::SERVE_REQUESTS);
    assert_eq!(
        rec.output_hash,
        expected::for_workload(Workload::CliRagged).output_hash
    );
    assert_eq!(rec.attempted, 2, "warm-up plus one timed call");
}

#[test]
fn a_16_request_serve_zipf_is_correct_and_reports_every_metric() {
    let rec = smoke(Workload::ServeZipf, 16);
    assert!(rec.get("slo_met_frac").is_some());
}
