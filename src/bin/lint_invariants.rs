//! Token-aware static invariant lint for hot-loop and accounting
//! discipline — the Rust port of the old `scripts/lint_invariants.sh`
//! greps (the script now just wraps this binary). Unlike the greps, every
//! rule here runs on a lexed view of the source with comments and
//! string/char literals blanked out, so prose that *mentions* a banned
//! construct no longer trips the lint and banned calls smuggled into
//! macro strings no longer hide from it.
//!
//! Kernel cost needs no rule: a dispatch's cost is the `AccessSummary`
//! that `CommandQueue::run`/`run_sliced` take as an argument, and kernel
//! closures have no way to count anything, so the type system already
//! enforces "declared once, charged once".
//!
//! Eight rules, all load-bearing:
//!
//! 1. Kernel and CPU-stage hot loops use the shared `math` helpers
//!    (`math::fmin`/`fmax`/`clampf`), never `f32::min`/`f32::max`/
//!    `.clamp(` — the std forms branch on NaN semantics and have drifted
//!    CPU/GPU results before.
//! 2. Kernel shape preconditions are typed errors, not panics: no
//!    `assert!`/`assert_eq!`/`assert_ne!` in non-test kernel code
//!    (`debug_assert!` on internal invariants stays allowed).
//! 3. Telemetry is observation-only: the metric/trace recording paths
//!    never mutate the state they observe.
//! 4. SIMD stays contained: `std::arch` intrinsics and feature detection
//!    only under `gpu/kernels/simd/`.
//! 5. Span recording is observation-only, like telemetry: the span
//!    module and the attribution layer never mutate the state they
//!    observe, and the queue's span hooks (any line touching the span
//!    ring) never advance the simulated clock or charge cost — spans
//!    must be removable without changing a single bit of output.
//! 6. The service layer (`core::service`) observes but never charges:
//!    scheduler, plan cache and traffic generator read frame component
//!    times and pool/cache counters, but all simulated cost flows through
//!    the kernels a plan runs — no `charge_*` calls, no simulated-clock
//!    writes, no device-record mutation. Served pixels and simulated
//!    seconds must be bit-identical to direct plan execution.
//! 7. The schedule tuner (`core::tune`) predicts cost without ever
//!    executing: no pipeline construction, plan preparation, queue
//!    dispatch, or cost charging anywhere under `crates/core/src/tune/`.
//!    The tuner's whole claim — thousands of candidates per second,
//!    `.to_bits()`-identical to execution — rests on the predictor
//!    replaying the timing model from closed-form counters; a single
//!    smuggled execution would turn the model search back into
//!    measure-by-running.
//! 8. Host-side charges — `charge_host`, `charge_host_seconds`,
//!    `charge_bulk`, `charge_map`, the queue's only cost entry points that
//!    are not a kernel declaration — are called only from the pipeline's
//!    host stages (`gpu/pipeline.rs`) and the ablation probes
//!    (`gpu/ablate.rs`). Those are public queue methods, so nothing but
//!    this rule keeps a scheduler, a kernel file or the banded executor
//!    from charging cost the predictor does not replay.

use std::path::{Path, PathBuf};

/// Blanks comments and string/char-literal contents with spaces while
/// preserving every newline, so rule matching sees only real tokens and
/// reported line numbers stay true to the original source.
fn strip_tokens(src: &str) -> String {
    let b: Vec<char> = src.chars().collect();
    let mut out = String::with_capacity(src.len());
    let mut i = 0;
    // Emits `c` if it is a newline (to keep line numbers), else a space.
    let blank = |out: &mut String, c: char| out.push(if c == '\n' { '\n' } else { ' ' });
    while i < b.len() {
        let c = b[i];
        let next = b.get(i + 1).copied();
        if c == '/' && next == Some('/') {
            while i < b.len() && b[i] != '\n' {
                out.push(' ');
                i += 1;
            }
        } else if c == '/' && next == Some('*') {
            let mut depth = 1;
            out.push_str("  ");
            i += 2;
            while i < b.len() && depth > 0 {
                if b[i] == '/' && b.get(i + 1) == Some(&'*') {
                    depth += 1;
                    out.push_str("  ");
                    i += 2;
                } else if b[i] == '*' && b.get(i + 1) == Some(&'/') {
                    depth -= 1;
                    out.push_str("  ");
                    i += 2;
                } else {
                    blank(&mut out, b[i]);
                    i += 1;
                }
            }
        } else if c == 'r' && matches!(next, Some('"') | Some('#'))
            || (c == 'b' && next == Some('r') && matches!(b.get(i + 2), Some('"') | Some('#')))
        {
            // Raw (byte) string: r"..", r#".."#, br#".."# — count the
            // hashes, then blank until `"` followed by that many hashes.
            let start = i;
            i += if c == 'b' { 2 } else { 1 };
            let mut hashes = 0;
            while b.get(i) == Some(&'#') {
                hashes += 1;
                i += 1;
            }
            if b.get(i) != Some(&'"') {
                // Not a raw string after all (e.g. `r#macro` identifiers);
                // emit what we consumed verbatim.
                for &c in &b[start..i] {
                    out.push(c);
                }
                continue;
            }
            for _ in start..=i {
                out.push(' ');
            }
            i += 1;
            while i < b.len() {
                if b[i] == '"'
                    && b[i + 1..]
                        .iter()
                        .take(hashes)
                        .filter(|&&h| h == '#')
                        .count()
                        == hashes
                {
                    for _ in 0..=hashes {
                        out.push(' ');
                    }
                    i += 1 + hashes;
                    break;
                }
                blank(&mut out, b[i]);
                i += 1;
            }
        } else if c == '"' || (c == 'b' && next == Some('"')) {
            out.push(' ');
            i += 1;
            if c == 'b' {
                out.push(' ');
                i += 1;
            }
            while i < b.len() {
                if b[i] == '\\' {
                    out.push_str("  ");
                    i += 2;
                } else if b[i] == '"' {
                    out.push(' ');
                    i += 1;
                    break;
                } else {
                    blank(&mut out, b[i]);
                    i += 1;
                }
            }
        } else if c == '\'' {
            // Char literal vs lifetime: a literal is 'x' or an escape;
            // anything else (e.g. `'a`, `'static`) is a lifetime.
            if next == Some('\\') {
                out.push(' ');
                i += 1;
                out.push_str("  ");
                i += 2;
                while i < b.len() && b[i] != '\'' {
                    blank(&mut out, b[i]);
                    i += 1;
                }
                out.push(' ');
                i += 1;
            } else if b.get(i + 2) == Some(&'\'') {
                out.push_str("   ");
                i += 3;
            } else {
                out.push(c);
                i += 1;
            }
        } else {
            out.push(c);
            i += 1;
        }
    }
    out
}

/// The stripped lines of a file, 1-indexed, optionally cut at the first
/// `#[cfg(test)]` (fixtures below it are exempt from most rules).
fn lines(stripped: &str, until_test: bool) -> Vec<(usize, &str)> {
    let mut v = Vec::new();
    for (n, line) in stripped.lines().enumerate() {
        if until_test && line.contains("#[cfg(test)]") {
            break;
        }
        v.push((n + 1, line));
    }
    v
}

/// Is there a `needle` occurrence in `line` whose preceding char is not
/// part of an identifier? (Filters `debug_assert!` out of `assert!`.)
fn has_bare(line: &str, needle: &str) -> bool {
    let mut from = 0;
    while let Some(p) = line[from..].find(needle) {
        let at = from + p;
        let prev = line[..at].chars().next_back();
        if !prev.is_some_and(|c| c.is_alphanumeric() || c == '_') {
            return true;
        }
        from = at + needle.len();
    }
    false
}

/// Does `line` call any `charge_*` function (an ident starting with
/// `charge_` immediately followed by `(`)?
fn has_charge_call(line: &str) -> bool {
    let mut from = 0;
    while let Some(p) = line[from..].find("charge_") {
        let at = from + p;
        let rest = &line[at + "charge_".len()..];
        let ident_len = rest
            .find(|c: char| !(c.is_alphanumeric() || c == '_'))
            .unwrap_or(rest.len());
        if rest[ident_len..].starts_with('(') {
            return true;
        }
        from = at + "charge_".len();
    }
    false
}

/// Does `line` assign through `.counters` (i.e. `.counters = …`, not a
/// comparison)?
fn has_counters_assign(line: &str) -> bool {
    let mut from = 0;
    while let Some(p) = line[from..].find(".counters") {
        let rest = line[from + p + ".counters".len()..].trim_start();
        if rest.starts_with('=') && !rest.starts_with("==") {
            return true;
        }
        from += p + ".counters".len();
    }
    false
}

/// Every `.rs` file under `dir`, recursively, sorted for deterministic
/// reports.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut v = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return v;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            if p.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            v.extend(rust_files(&p));
        } else if p.extension().is_some_and(|x| x == "rs") {
            v.push(p);
        }
    }
    v.sort();
    v
}

struct Lint {
    root: PathBuf,
    failures: Vec<String>,
}

impl Lint {
    fn read(&self, rel: &Path) -> String {
        // Missing files lint clean: fixed-path rules (megapass, telemetry)
        // simply have nothing to check in a partial tree.
        let src = std::fs::read_to_string(self.root.join(rel)).unwrap_or_default();
        strip_tokens(&src)
    }

    fn fail(&mut self, header: &str, rel: &Path, hits: &[(usize, &str)]) {
        if hits.is_empty() {
            return;
        }
        let mut msg = format!("lint: {header}\n");
        for (n, line) in hits {
            msg.push_str(&format!("  {}:{n}: {}\n", rel.display(), line.trim()));
        }
        self.failures.push(msg);
    }

    /// Rule 1: std float min/max/clamp in hot-loop code.
    fn rule_std_float(&mut self, hot: &[PathBuf]) {
        for rel in hot {
            let s = self.read(rel);
            let hits: Vec<_> = lines(&s, false)
                .into_iter()
                .filter(|(_, l)| {
                    l.contains("f32::min") || l.contains("f32::max") || l.contains(".clamp(")
                })
                .collect();
            self.fail(
                "std float min/max/clamp in hot-loop code (use math::fmin/fmax/clampf)",
                rel,
                &hits,
            );
        }
    }

    /// Rule 2: kernel preconditions must not panic.
    fn rule_no_kernel_asserts(&mut self, kernel_files: &[PathBuf]) {
        for rel in kernel_files {
            let s = self.read(rel);
            let hits: Vec<_> = lines(&s, true)
                .into_iter()
                .filter(|(_, l)| {
                    has_bare(l, "assert!") || has_bare(l, "assert_eq!") || has_bare(l, "assert_ne!")
                })
                .collect();
            self.fail(
                "kernel precondition panics (return Error::InvalidKernelArgs instead)",
                rel,
                &hits,
            );
        }
    }

    /// Rule 3: telemetry recording paths never mutate observed state.
    fn rule_observation_only(&mut self, telemetry_files: &[PathBuf]) {
        for rel in telemetry_files {
            let s = self.read(rel);
            let hits: Vec<_> = lines(&s, true)
                .into_iter()
                .filter(|(_, l)| {
                    l.contains(".reset(")
                        || l.contains("records_mut")
                        || l.contains("charge_global")
                        || l.contains("set_span")
                        || l.contains("&mut CommandRecord")
                        || l.contains("&mut CostCounters")
                        || has_counters_assign(l)
                })
                .collect();
            self.fail(
                "telemetry recording path mutates observed state (observation-only invariant)",
                rel,
                &hits,
            );
        }
    }

    /// Rule 4: SIMD contained to its module.
    fn rule_simd_contained(&mut self, all_files: &[PathBuf], simd_dir: &Path) {
        for rel in all_files.iter().filter(|rel| !rel.starts_with(simd_dir)) {
            let s = self.read(rel);
            let hits: Vec<_> = lines(&s, false)
                .into_iter()
                .filter(|(_, l)| {
                    l.contains("std::arch")
                        || l.contains("core::arch")
                        || l.contains("is_x86_feature_detected")
                        || l.contains("_mm_")
                        || l.contains("_mm256_")
                })
                .collect();
            self.fail(
                "std::arch intrinsics/feature detection outside gpu/kernels/simd (keep SIMD behind the dispatch module)",
                rel,
                &hits,
            );
        }
    }

    /// Rule 5: span-recording code never mutates observed state. The
    /// span/attribution files are held to the same predicates as rule 5
    /// (plus simulated-clock writes), and inside the queue any line that
    /// touches the span ring must be a pure read of clock and names.
    fn rule_spans_observation_only(&mut self, span_files: &[PathBuf], queue: &Path) {
        let mutates = |l: &str| {
            has_charge_call(l)
                || l.contains("records_mut")
                || l.contains("set_span")
                || l.contains("&mut CommandRecord")
                || l.contains("&mut CostCounters")
                || l.contains("clock_s +=")
                || l.contains("clock_s -=")
                || has_counters_assign(l)
        };
        for rel in span_files {
            let s = self.read(rel);
            let hits: Vec<_> = lines(&s, true)
                .into_iter()
                .filter(|(_, l)| mutates(l))
                .collect();
            self.fail(
                "span-recording/attribution code mutates observed state (observation-only invariant)",
                rel,
                &hits,
            );
        }
        let s = self.read(queue);
        let hits: Vec<_> = lines(&s, true)
            .into_iter()
            .filter(|(_, l)| (l.contains("ring.") || l.contains("self.spans")) && mutates(l))
            .collect();
        self.fail(
            "queue span hook mutates simulated state (span ring lines must be pure reads)",
            queue,
            &hits,
        );
    }

    /// Rule 6: the service layer never charges cost or mutates simulated
    /// state — same predicates as the span rule, applied to every file
    /// under `core/src/service/`.
    fn rule_service_observation_only(&mut self, service_files: &[PathBuf]) {
        for rel in service_files {
            let s = self.read(rel);
            let hits: Vec<_> = lines(&s, true)
                .into_iter()
                .filter(|(_, l)| {
                    has_charge_call(l)
                        || l.contains("records_mut")
                        || l.contains("set_span")
                        || l.contains("&mut CommandRecord")
                        || l.contains("&mut CostCounters")
                        || l.contains("clock_s +=")
                        || l.contains("clock_s -=")
                        || has_counters_assign(l)
                })
                .collect();
            self.fail(
                "service layer charges cost or mutates simulated state (all cost must flow \
                 through the kernels a PipelinePlan runs)",
                rel,
                &hits,
            );
        }
    }

    /// Rule 7: the tuner is execution-free — `core::tune` never builds a
    /// pipeline, prepares a plan, dispatches a queue command, or charges
    /// cost. Prediction must stay a pure function of the counters.
    fn rule_tune_execution_free(&mut self, tune_files: &[PathBuf]) {
        for rel in tune_files {
            let s = self.read(rel);
            let hits: Vec<_> = lines(&s, true)
                .into_iter()
                .filter(|(_, l)| {
                    l.contains("GpuPipeline")
                        || l.contains("CpuPipeline")
                        || l.contains("CommandQueue")
                        || l.contains("Context::new")
                        || l.contains(".prepared(")
                        || l.contains("run_into")
                        || l.contains("run_with_telemetry")
                        || l.contains("q.run(")
                        || l.contains(".run_sliced(")
                        || l.contains(".run_rows(")
                        || l.contains(".run_sliced_rows(")
                        // Counter *construction* via CostCounters::charge_*
                        // is the predictor's whole job; what is banned is
                        // driving a live group or row context like a kernel
                        // does.
                        || l.contains("GroupCtx")
                        || l.contains("RowCtx")
                })
                .collect();
            self.fail(
                "schedule tuner executes a pipeline (core::tune must predict from closed-form \
                 counters only — execution belongs in the caller's self-check)",
                rel,
                &hits,
            );
        }
    }

    /// Rule 8: host-side charges only from the pipeline's host stages and
    /// the ablation probes (the simulator itself defines them).
    fn rule_host_charges_confined(&mut self, all_files: &[PathBuf], sanctioned: &[PathBuf]) {
        let host_charge = |l: &str| {
            [
                "charge_host(",
                "charge_host_seconds(",
                "charge_bulk(",
                "charge_map(",
            ]
            .iter()
            .any(|c| l.contains(c))
        };
        for rel in all_files {
            if rel.starts_with("crates/simgpu") || sanctioned.contains(rel) {
                continue;
            }
            let s = self.read(rel);
            let hits: Vec<_> = lines(&s, true)
                .into_iter()
                .filter(|(_, l)| host_charge(l))
                .collect();
            self.fail(
                "host-side charge outside the pipeline host stages (charge_host/charge_bulk/\
                 charge_map belong to gpu/pipeline.rs and gpu/ablate.rs; kernel cost is the \
                 dispatch's declaration)",
                rel,
                &hits,
            );
        }
    }
}

fn run(root: &Path) -> i32 {
    let mut lint = Lint {
        root: root.to_path_buf(),
        failures: Vec::new(),
    };
    let kernels_dir = root.join("crates/core/src/gpu/kernels");
    let rel = |p: &Path| p.strip_prefix(root).expect("under root").to_path_buf();

    // Direct kernel files (the simd/ backends are held to rule 6 instead).
    let kernel_files: Vec<PathBuf> = rust_files(&kernels_dir)
        .into_iter()
        .filter(|p| p.parent() == Some(kernels_dir.as_path()))
        .map(|p| rel(&p))
        .collect();
    // Rule 1 sweeps the kernels tree recursively (simd backends included).
    let mut hot: Vec<PathBuf> = rust_files(&kernels_dir).iter().map(|p| rel(p)).collect();
    hot.push(PathBuf::from("crates/core/src/cpu/stages.rs"));

    lint.rule_std_float(&hot);
    lint.rule_no_kernel_asserts(&kernel_files);
    lint.rule_observation_only(&[
        PathBuf::from("crates/core/src/telemetry.rs"),
        PathBuf::from("crates/simgpu/src/metrics.rs"),
        PathBuf::from("crates/simgpu/src/trace.rs"),
    ]);

    let all: Vec<PathBuf> = [root.join("crates"), root.join("src")]
        .iter()
        .flat_map(|d| rust_files(d))
        .map(|p| rel(&p))
        .collect();
    lint.rule_simd_contained(&all, Path::new("crates/core/src/gpu/kernels/simd"));
    lint.rule_host_charges_confined(
        &all,
        &[
            PathBuf::from("crates/core/src/gpu/pipeline.rs"),
            PathBuf::from("crates/core/src/gpu/ablate.rs"),
        ],
    );
    lint.rule_spans_observation_only(
        &[
            PathBuf::from("crates/simgpu/src/span.rs"),
            PathBuf::from("crates/core/src/analyze.rs"),
        ],
        Path::new("crates/simgpu/src/queue.rs"),
    );

    let service_files: Vec<PathBuf> = rust_files(&root.join("crates/core/src/service"))
        .into_iter()
        .map(|p| rel(&p))
        .collect();
    lint.rule_service_observation_only(&service_files);

    let tune_files: Vec<PathBuf> = rust_files(&root.join("crates/core/src/tune"))
        .into_iter()
        .map(|p| rel(&p))
        .collect();
    lint.rule_tune_execution_free(&tune_files);

    if lint.failures.is_empty() {
        println!("lint_invariants: OK (8 rules, token-aware)");
        0
    } else {
        for f in &lint.failures {
            print!("{f}");
        }
        println!("lint_invariants: FAILED");
        1
    }
}

fn main() {
    let root = std::env::args()
        .nth(1)
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(env!("CARGO_MANIFEST_DIR")));
    std::process::exit(run(&root));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn strips_line_and_block_comments() {
        let s = strip_tokens("a // f32::min\nb /* .clamp( */ c\n");
        assert!(!s.contains("f32::min"));
        assert!(!s.contains(".clamp("));
        assert!(s.contains('a') && s.contains('b') && s.contains('c'));
        assert_eq!(s.lines().count(), 2);
    }

    #[test]
    fn strips_nested_block_comments() {
        let s = strip_tokens("x /* outer /* f32::max */ still */ y");
        assert!(!s.contains("f32::max"));
        assert!(s.contains('x') && s.contains('y'));
    }

    #[test]
    fn strips_string_contents_but_keeps_code() {
        let s = strip_tokens(r#"let m = "f32::min"; q.run(x)"#);
        assert!(!s.contains("f32::min"));
        assert!(s.contains("q.run(x)"));
    }

    #[test]
    fn strips_raw_strings_and_escapes() {
        let s = strip_tokens("let a = r#\"assert!( \"# ; let b = \"\\\"assert!\";");
        assert!(!s.contains("assert!"));
        let s = strip_tokens("let c = br\"charge_x(\";");
        assert!(!s.contains("charge_x("));
    }

    #[test]
    fn keeps_lifetimes_and_strips_char_literals() {
        let s = strip_tokens("fn f<'a>(x: &'a str) { let c = '\"'; let d = 'z'; }");
        assert!(s.contains("<'a>"));
        assert!(s.contains("&'a str"));
        assert!(!s.contains('z'));
        // The '"' char literal must not open a string.
        assert!(s.contains("let d"));
    }

    #[test]
    fn bare_match_excludes_debug_assert() {
        assert!(has_bare("    assert!(x);", "assert!"));
        assert!(!has_bare("    debug_assert!(x);", "assert!"));
        assert!(has_bare("debug_assert!(a); assert!(b);", "assert!"));
    }

    #[test]
    fn charge_call_detection() {
        assert!(has_charge_call("g.charge_global_n(4);"));
        assert!(has_charge_call("charge_flops(n)"));
        assert!(!has_charge_call("let charge_total = 4;"));
        assert!(!has_charge_call("// none here"));
    }

    #[test]
    fn counters_assignment_vs_comparison() {
        assert!(has_counters_assign("rec.counters = Some(c);"));
        assert!(!has_counters_assign("if rec.counters == other {}"));
    }

    #[test]
    fn repo_is_clean() {
        assert_eq!(run(Path::new(env!("CARGO_MANIFEST_DIR"))), 0);
    }

    #[test]
    fn flags_violations_in_a_synthetic_tree() {
        let root = std::env::temp_dir().join(format!("lint-fixture-{}", std::process::id()));
        let kernels = root.join("crates/core/src/gpu/kernels");
        std::fs::create_dir_all(&kernels).unwrap();
        // Three violations: std clamp (rule 1), a bare assert (rule 2),
        // and a host-side charge from a kernel file (rule 8). A comment
        // mentioning `f32::min` must NOT count.
        std::fs::write(
            kernels.join("bad.rs"),
            "// f32::min in prose is fine\n\
             fn k(x: f32) -> f32 {\n\
                 assert!(x > 0.0);\n\
                 q.charge_host(\"host:k\", &c);\n\
                 x.clamp(0.0, 1.0)\n\
             }\n",
        )
        .unwrap();
        let code = run(&root);
        std::fs::remove_dir_all(&root).ok();
        assert_eq!(code, 1);
    }

    #[test]
    fn flags_service_code_that_charges_cost() {
        let root =
            std::env::temp_dir().join(format!("lint-service-fixture-{}", std::process::id()));
        let service = root.join("crates/core/src/service");
        std::fs::create_dir_all(&service).unwrap();
        // Rule 6: a scheduler that charges cost itself would double-count
        // against the kernels' own declarations.
        std::fs::write(
            service.join("scheduler.rs"),
            "fn run(&mut self) {\n\
                 g.charge_global_n(4, n);\n\
             }\n",
        )
        .unwrap();
        let code = run(&root);
        std::fs::remove_dir_all(&root).ok();
        assert_eq!(code, 1);
    }

    #[test]
    fn flags_tune_code_that_executes() {
        let root = std::env::temp_dir().join(format!("lint-tune-fixture-{}", std::process::id()));
        let tune = root.join("crates/core/src/tune");
        std::fs::create_dir_all(&tune).unwrap();
        // Rule 7: a tuner stage that prepares and runs a real plan is
        // measure-by-running in disguise. A doc comment mentioning
        // CommandQueue must NOT count, and neither must test code.
        std::fs::write(
            tune.join("search.rs"),
            "//! Mirrors what the CommandQueue charges.\n\
             fn probe(ctx: &Context) -> f64 {\n\
                 let plan = pipe.prepared(w, h).unwrap();\n\
                 plan.run_into(&img, &mut out).unwrap().total()\n\
             }\n\
             #[cfg(test)]\n\
             mod tests { fn lockstep() { let p = GpuPipeline::new(c, d, o); } }\n",
        )
        .unwrap();
        let code = run(&root);
        assert_eq!(code, 1);
        // A tuner that dispatches a kernel by rows executes just the same.
        std::fs::write(tune.join("search.rs"), "fn probe() -> f64 { 1.0 }\n").unwrap();
        assert_eq!(run(&root), 0);
        std::fs::write(
            tune.join("search.rs"),
            "fn probe(q: &mut Queue) { q.run_rows(&desc, decl, &[], |r| {}).unwrap(); }\n",
        )
        .unwrap();
        let code = run(&root);
        std::fs::remove_dir_all(&root).ok();
        assert_eq!(code, 1);
    }

    #[test]
    fn flags_span_code_that_mutates_state() {
        let root = std::env::temp_dir().join(format!("lint-span-fixture-{}", std::process::id()));
        std::fs::create_dir_all(root.join("crates/simgpu/src")).unwrap();
        // Rule 5: a span module that advances the clock or charges cost
        // breaks the observation-only invariant.
        std::fs::write(
            root.join("crates/simgpu/src/span.rs"),
            "fn record(&mut self) {\n\
                 self.clock_s += 1.0;\n\
             }\n",
        )
        .unwrap();
        std::fs::write(
            root.join("crates/simgpu/src/queue.rs"),
            "fn hook(&mut self) {\n\
                 if let Some(ring) = &mut self.spans { ring.leaf(); self.clock_s += dur; }\n\
             }\n",
        )
        .unwrap();
        let code = run(&root);
        std::fs::remove_dir_all(&root).ok();
        assert_eq!(code, 1);
    }
}
