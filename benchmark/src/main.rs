//! The repository benchmark: gateway admission end to end, with
//! per-layer attribution. See `README.md` beside this package.
//!
//! One process, two threads at most (this generator thread and the
//! gateway's worker). `--trace 0` measures for `--seconds` seconds and
//! prints the end-to-end metrics; `--trace 1` replays a fixed number of
//! requests per `--seconds` and prints the per-layer metrics. The last
//! line of standard output is the result as one JSON object.

mod certify;
mod gateway;
mod host;
mod metrics;
mod recover;
mod replay;
mod slices;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use wimesh::{MeshQos, OrderPolicy};
use wimesh_svc::{parse_journal, GatewayConfig, GatewayReport};

use gateway::{LiveChecks, Phase};
use metrics::Values;
use replay::{Timer, Tracer};
use workload::{Kind, Workload, WORKLOADS};

type Res<T> = Result<T, Box<dyn std::error::Error>>;

/// Set-up is repeated at least this often, and until [`SETUP_BUDGET`]
/// is spent, so that `setup_s` is a median of several.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 400;
const SETUP_BUDGET: Duration = Duration::from_secs(1);

/// The timed steps of a replay must add up to this share of its wall
/// time; below it a layer goes untimed.
const MIN_COVERAGE: f64 = 0.9;

/// Share of `--seconds` the loaded phase of a churn workload takes; the
/// unloaded phase takes the rest.
const LOADED_SHARE: f64 = 0.7;

/// Share of `--seconds` the recovery workload recovers for, untimed,
/// before it measures (the gateway workloads warm up inside set-up).
const RECOVERY_WARMUP_SHARE: f64 = 0.1;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str = "usage: wimesh-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace [0|1]]
  without --workload every workload runs in turn; names: gw_churn_grid8 gw_churn_chain6 gw_exact_chain8 recover_grid4";

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1).peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or(format!("{name} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value("--workload")?),
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds wants a positive number")?;
            }
            "--trace" => {
                args.trace = match it.peek().map(String::as_str) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "-h" | "--help" => return Err(String::from(USAGE)),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    Ok(args)
}

/// Everything one workload's run prints.
struct Report {
    header: Vec<String>,
    values: Values,
    attempted: u64,
    failed: u64,
    /// Output checks that failed; any makes the run incorrect.
    violations: Vec<String>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let selected: Vec<&Workload> = match &args.workload {
        Some(name) => match workload::find(name) {
            Some(w) => vec![w],
            None => {
                eprintln!("unknown workload {name}\n{USAGE}");
                return ExitCode::from(2);
            }
        },
        None => WORKLOADS.iter().collect(),
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let host = host::Host::probe();
    let mut ok = true;
    for w in selected {
        println!("# workload {}: {}", w.name, w.why);
        println!(
            "# host nproc={} cpu=\"{}\" rustc=\"{}\" commit={}",
            host.nproc, host.cpu, host.rustc, host.commit
        );
        println!(
            "# seed={} seconds={} trace={}",
            args.seed,
            args.seconds,
            u8::from(args.trace)
        );
        let report = match w.kind {
            Kind::Recover { live, requests } => run_recovery(w, live, requests, &args, &out_dir),
            _ => run_gateway(w, &args, &out_dir),
        };
        match report.and_then(|r| print_report(&r)) {
            Ok(correct) => ok &= correct,
            Err(e) => {
                eprintln!("{}: {e}", w.name);
                return ExitCode::FAILURE;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints header, metrics and the result line; returns whether every
/// output check passed.
fn print_report(report: &Report) -> Res<bool> {
    let metrics = report.values.finish()?;
    for line in &report.header {
        println!("# {line}");
    }
    for v in &report.violations {
        println!("# OUTPUT CHECK FAILED: {v}");
    }
    for (name, unit, value) in &metrics {
        println!("{name} {unit} {value}");
    }
    let correct = report.violations.is_empty();
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        report.failed + report.violations.len() as u64,
        body.join(", ")
    );
    Ok(correct)
}

fn build_mesh(w: &Workload) -> Res<MeshQos> {
    Ok(MeshQos::builder(w.mesh.build()).build()?)
}

/// Repeats `set_up` (timed) and `discard` (not timed) until the set-up
/// budget is spent; returns the last set-up and every set-up time.
fn repeat_setup<T>(
    mut set_up: impl FnMut() -> Res<T>,
    mut discard: impl FnMut(T),
) -> Res<(T, Vec<f64>)> {
    let mut times = Vec::new();
    let began = Instant::now();
    loop {
        let start = Instant::now();
        let made = set_up()?;
        times.push(start.elapsed().as_secs_f64());
        let enough = times.len() >= SETUP_MIN_REPS && began.elapsed() >= SETUP_BUDGET;
        if enough || times.len() >= SETUP_MAX_REPS {
            return Ok((made, times));
        }
        discard(made);
    }
}

fn us(nanos: u64) -> f64 {
    nanos as f64 / 1e3
}

/// Sets every timer's metric (mean microseconds per call), logs the call
/// counts, and returns the nanoseconds spent in the timers that `is_step`
/// counts as steps of the measured path.
fn timer_values(
    tracer: &Tracer,
    values: &mut Values,
    header: &mut Vec<String>,
    is_step: impl Fn(Timer) -> bool,
) -> u64 {
    let mut steps = 0;
    let mut calls = Vec::new();
    for &t in Timer::ALL {
        let agg = tracer.agg(t);
        values.set(t.metric(), agg.mean_us());
        calls.push(format!("{}={}", t.metric(), agg.calls));
        if is_step(t) {
            steps += agg.total_ns;
        }
    }
    header.push(format!("calls: {}", calls.join(" ")));
    steps
}

fn run_gateway(w: &Workload, args: &Args, out_dir: &Path) -> Res<Report> {
    let journal = out_dir.join(format!("journal_{}.jsonl", w.name));
    let mut samples = gateway::Samples::new();
    let ((mesh, mut running), setup_times) = repeat_setup(
        || {
            let mesh = build_mesh(w)?;
            let running = gateway::start(w, &mesh, args.seed, &journal, &mut samples)?;
            Ok((mesh, running))
        },
        |(_, running)| {
            running.gateway.shutdown();
        },
    )?;
    let config = GatewayConfig::default();
    let mut header = vec![format!(
        "gateway queue_capacity={} max_batch={} snapshot_every={} request_timeout={:?} policy={:?} (session {:?})",
        config.queue_capacity,
        config.max_batch,
        config.snapshot_every,
        config.request_timeout,
        config.policy,
        w.policy
    )];

    // Untraced, the phases last for shares of --seconds; traced, they
    // make a fixed number of requests per second of --seconds, so the
    // counts of two traced runs of one seed can be compared exactly.
    let (window, unloaded) = match w.kind {
        Kind::Churn { window, .. } => (window, true),
        _ => (1, false),
    };
    let measured_share = if unloaded { LOADED_SHARE } else { 1.0 };
    let mut checks = LiveChecks::new(&mesh, &running.client);
    let mut phase = |label: &str, window: usize, share: f64, header: &mut Vec<String>| -> Phase {
        // Untraced for a share of --seconds, traced for a fixed number of
        // requests per second of --seconds.
        let requests = (w.trace_requests_per_s as f64 * args.seconds * share) as u64;
        let deadline = Instant::now() + Duration::from_secs_f64(args.seconds * share);
        let p = gateway::run_phase(
            &running.client,
            running.gen.as_mut(),
            window,
            &mut |issued| {
                if args.trace {
                    issued >= requests
                } else {
                    Instant::now() >= deadline
                }
            },
            &mut checks,
            &mut samples,
        );
        header.push(format!(
            "phase {label}: W={window} {:.3} s, {} requests ({} admits: {} admitted, {} rejected; {} failed)",
            p.wall.as_secs_f64(),
            p.counts.attempted,
            p.counts.admits,
            p.counts.admitted,
            p.counts.rejected,
            p.counts.failed
        ));
        p
    };
    let loaded = phase("loaded", window, measured_share, &mut header);
    let idle = unloaded.then(|| phase("unloaded", 1, 1.0 - LOADED_SHARE, &mut header));
    let peak_rss = host::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;

    let mut violations = std::mem::take(&mut checks.violations);
    let views_certified = checks.views_certified;
    let (gw_report, recovered) = gateway::shutdown_and_recover(w, &mesh, running.gateway, &journal);
    if let Err(e) = recovered {
        violations.push(e);
    }

    let mut measured = loaded.counts.clone();
    if let Some(p) = &idle {
        measured.add(&p.counts);
    }
    let mut all = measured.clone();
    all.add(&running.prefill);
    for e in &all.errors {
        header.push(format!("failed request: {e}"));
    }
    header.push(format!(
        "set-up: {} repetitions, {} requests each; views certified: {views_certified}; worker batches: {}, largest {}",
        setup_times.len(),
        running.prefill.attempted,
        gw_report.service.batches,
        gw_report.service.max_batch_seen
    ));
    if measured.admits == 0 {
        return Err("no admission was measured".into());
    }

    let mut report = Report {
        header,
        values: Values::of(&metrics::END_TO_END),
        attempted: measured.attempted,
        failed: measured.failed,
        violations,
    };
    if !args.trace {
        let lat = loaded.latency.ok_or("no latency samples")?;
        let rates = loaded.rates.ok_or("no request was measured")?;
        report.header.push(format!(
            "samples: setup_s={} ops_per_s={slices} cpu_us_per_op={slices} (one-second slices) lat_p50_us={}; p{} of the loaded phase was {} us",
            setup_times.len(),
            lat.samples,
            lat.tail_percentile,
            us(lat.tail_ns),
            slices = rates.slices,
        ));
        let v = &mut report.values;
        v.set("setup_s", stats::median(&setup_times));
        v.set("ops_per_s", rates.ops_per_s);
        v.set("lat_p50_us", us(lat.p50_ns));
        v.set("cpu_us_per_op", rates.cpu_us_per_op);
        v.set(
            "accept_share",
            measured.admitted as f64 / measured.admits as f64,
        );
        v.set("peak_rss_mb", peak_rss);
        return Ok(report);
    }

    trace_gateway(
        w,
        &mesh,
        &journal,
        out_dir,
        &GatewayRun {
            report: &gw_report,
            loaded: &loaded,
            idle: idle.as_ref(),
            measured: &measured,
        },
        &mut report,
    )?;
    Ok(report)
}

/// What the gateway phases of a traced run leave for the replay.
struct GatewayRun<'a> {
    report: &'a GatewayReport,
    loaded: &'a Phase,
    idle: Option<&'a Phase>,
    /// Outcomes of the loaded and the unloaded phase together.
    measured: &'a gateway::Counts,
}

/// The traced half of a gateway workload: replays the journal the
/// gateway just wrote, plain and timed, and fills in the per-layer
/// metrics.
fn trace_gateway(
    w: &Workload,
    mesh: &MeshQos,
    journal: &Path,
    out_dir: &Path,
    run: &GatewayRun<'_>,
    report: &mut Report,
) -> Res<()> {
    let GatewayRun {
        report: gw_report,
        loaded,
        idle,
        measured,
    } = *run;
    let text = std::fs::read_to_string(journal)?;
    let log = parse_journal(&text)
        .map_err(|e| format!("journal corrupt at line {}: {}", e.line, e.reason))?;
    let replay_journal = out_dir.join(format!("replay_{}.jsonl", w.name));
    let publishes = gw_report.service.batches;
    let plain_pass = || {
        replay::replay(
            mesh,
            w.policy,
            &log,
            publishes,
            &replay_journal,
            &mut Tracer::new(false),
        )
    };
    let plain = plain_pass()?;
    let mut tracer = Tracer::new(true);
    let traced = replay::replay(
        mesh,
        w.policy,
        &log,
        publishes,
        &replay_journal,
        &mut tracer,
    )?;
    let plain_wall = (plain.wall + plain_pass()?.wall) / 2;
    tracer.write_spans(&out_dir.join(format!("trace_{}.jsonl", w.name)))?;
    report.violations.extend(traced.violations.iter().cloned());
    if traced.state != gw_report.state {
        report.violations.push(String::from(
            "the replay ended in another state than the gateway",
        ));
    }

    let gateway_wall = loaded.wall + idle.map_or(Duration::ZERO, |p| p.wall);
    let gateway_requests = measured.attempted;
    let per_request =
        |wall: Duration, requests: u64| wall.as_secs_f64() * 1e6 / requests.max(1) as f64;
    let mut v = Values::of(&metrics::per_layer());
    let steps = timer_values(&tracer, &mut v, &mut report.header, Timer::is_step);
    report.header.push(format!(
        "replay: {} records, {} requests, {} publishes; plain {:.3} s (mean of a pass before and one after), traced {:.3} s; {} releases refused by the session",
        traced.records,
        traced.requests,
        traced.publishes,
        plain_wall.as_secs_f64(),
        traced.wall.as_secs_f64(),
        traced.release_errors
    ));
    v.set(
        "svc.queue_handoff_us",
        per_request(gateway_wall, gateway_requests) - per_request(plain_wall, plain.requests),
    );
    v.set("svc.batches", gw_report.service.batches as f64);
    v.set(
        "svc.mean_batch",
        gw_report.service.requests as f64 / gw_report.service.batches.max(1) as f64,
    );
    v.set(
        "svc.max_batch_seen",
        gw_report.service.max_batch_seen as f64,
    );
    v.set(
        "svc.journal_bytes_per_op",
        text.len() as f64 / traced.requests.max(1) as f64,
    );
    v.set("svc.records", traced.records as f64);
    let s = &traced.stats;
    v.set("core.oracle_calls", s.oracle_calls as f64);
    v.set("core.search_iterations", s.search_iterations as f64);
    v.set("core.warm_order_hits", s.warm_order_hits as f64);
    v.set("core.incremental_updates", s.incremental_updates as f64);
    v.set("core.graph_rebuilds", s.graph_rebuilds as f64);
    v.set("core.batch_solves", s.batch_solves as f64);
    v.set("core.coalesced_admits", s.coalesced_admits as f64);
    v.set("core.clique_prunes", s.clique_prunes as f64);
    v.set("conflict.vertices", traced.conflict_vertices);
    v.set("conflict.edges", traced.conflict_edges);
    for (metric, count, span) in [
        (
            "milp.bnb_solve_us",
            Some("milp.bnb_solves"),
            "milp.bnb.solve",
        ),
        (
            "milp.simplex_solve_us",
            Some("milp.simplex_solves"),
            "milp.simplex.solve",
        ),
        ("tdma.schedule_build_us", None, "tdma.schedule.build"),
    ] {
        let agg = replay::program_span(span);
        v.set(metric, agg.mean_us());
        if let Some(count) = count {
            v.set(count, agg.calls as f64);
        }
    }
    let coverage = steps as f64 / 1e9 / traced.wall.as_secs_f64();
    if coverage < MIN_COVERAGE {
        report.violations.push(format!(
            "the timed steps cover {coverage:.3} of the replay: a layer is not timed"
        ));
    }
    // The workloads' reasons, checked: the oracle is on the exact
    // workload's path and on no other.
    if (w.policy == OrderPolicy::ExactMilp) != (s.oracle_calls > 0) {
        report.violations.push(format!(
            "{} oracle calls under {:?}",
            s.oracle_calls, w.policy
        ));
    }
    v.set("trace.coverage", coverage);
    v.set(
        "trace.overhead_share",
        (traced.wall.as_secs_f64() - plain_wall.as_secs_f64()) / plain_wall.as_secs_f64(),
    );
    v.set(
        "fail_share",
        measured.failed as f64 / measured.attempted.max(1) as f64,
    );
    let lat = loaded.latency.ok_or("no latency samples")?;
    let idle_lat = idle
        .unwrap_or(loaded)
        .admit_latency
        .ok_or("no unloaded admission")?;
    report.header.push(format!(
        "samples: lat_p99_us={} (p{}) unloaded_p50_us={} (admissions only)",
        lat.samples, lat.tail_percentile, idle_lat.samples
    ));
    v.set("lat_p99_us", us(lat.tail_ns));
    v.set("unloaded_p50_us", us(idle_lat.p50_ns));
    v.fill_unset(0.0);
    report.values = v;
    Ok(())
}

fn run_recovery(
    w: &Workload,
    live: usize,
    requests: usize,
    args: &Args,
    out_dir: &Path,
) -> Res<Report> {
    let journal: PathBuf = out_dir.join(format!("journal_{}.jsonl", w.name));
    let mut first_bytes: Option<Vec<u8>> = None;
    let mut violations = Vec::new();
    let ((mesh, written), setup_times) = repeat_setup(
        || {
            let mesh = build_mesh(w)?;
            let written = recover::write_journal(w, &mesh, args.seed, live, requests, &journal)?;
            Ok((mesh, written))
        },
        |_| {
            // The journal is a function of the seed: every repetition
            // must write the same bytes.
            let bytes = std::fs::read(&journal).unwrap_or_default();
            match &first_bytes {
                None => first_bytes = Some(bytes),
                Some(first) if *first != bytes && violations.is_empty() => {
                    violations.push(String::from(
                        "two set-ups of one seed wrote different journals",
                    ));
                }
                Some(_) => {}
            }
        },
    )?;
    let c = &written.counts;
    let mut header = vec![format!(
        "set-up: {} repetitions; journal {} B from {} requests ({} admits: {} admitted, {} rejected; {} failed), snapshot_every={}, torn tail appended",
        setup_times.len(),
        written.bytes,
        c.attempted,
        c.admits,
        c.admitted,
        c.rejected,
        c.failed,
        GatewayConfig::default().snapshot_every
    )];
    for e in &c.errors {
        header.push(format!("failed request: {e}"));
    }
    if c.admits == 0 {
        return Err("the journal holds no admission".into());
    }

    let mut attempted = 0u64;
    let mut failed = c.failed;
    let mut check = |result: Result<(), String>, violations: &mut Vec<String>| {
        if let Err(e) = result {
            failed += 1;
            gateway::keep(violations, e);
        }
    };

    if !args.trace {
        let mut samples = Vec::new();
        let warm_until =
            Instant::now() + Duration::from_secs_f64(args.seconds * RECOVERY_WARMUP_SHARE);
        while Instant::now() < warm_until {
            let (_, result) = recover::recover_once(w, &mesh, &journal, &written);
            check(result, &mut violations);
        }
        let start = Instant::now();
        let deadline = start + Duration::from_secs_f64(args.seconds);
        let mut slices = slices::Slices::start();
        while Instant::now() < deadline {
            slices.tick();
            let (nanos, result) = recover::recover_once(w, &mesh, &journal, &written);
            check(result, &mut violations);
            samples.push(nanos);
            slices.op();
            attempted += 1;
        }
        let wall = start.elapsed();
        let rates = slices.finish().ok_or("no recovery was timed")?;
        let peak_rss = host::peak_rss_mb().ok_or("no VmHWM in /proc/self/status")?;
        let lat = stats::summarize(&mut samples).ok_or("no recovery was timed")?;
        header.push(format!(
            "{} recoveries in {:.3} s, {:.1} MB/s of journal",
            lat.samples,
            wall.as_secs_f64(),
            written.bytes as f64 * lat.samples as f64 / wall.as_secs_f64() / 1e6
        ));
        header.push(format!(
            "samples: setup_s={} ops_per_s={slices} cpu_us_per_op={slices} (one-second slices) lat_p50_us={}; p{} was {} us",
            setup_times.len(),
            lat.samples,
            lat.tail_percentile,
            us(lat.tail_ns),
            slices = rates.slices,
        ));
        let mut v = Values::of(&metrics::END_TO_END);
        v.set("setup_s", stats::median(&setup_times));
        v.set("ops_per_s", rates.ops_per_s);
        v.set("lat_p50_us", us(lat.p50_ns));
        v.set("cpu_us_per_op", rates.cpu_us_per_op);
        v.set("accept_share", c.admitted as f64 / c.admits as f64);
        v.set("peak_rss_mb", peak_rss);
        return Ok(Report {
            header,
            values: v,
            attempted,
            failed,
            violations,
        });
    }

    // Traced: the same number of plain and of step-by-step recoveries.
    let rounds = ((w.trace_requests_per_s as f64 * args.seconds) as u64).max(1);
    let mut plain_ns = 0u64;
    let mut samples = Vec::new();
    let mut plain_pass = |violations: &mut Vec<String>| {
        for _ in 0..rounds {
            let (nanos, result) = recover::recover_once(w, &mesh, &journal, &written);
            check(result, violations);
            plain_ns += nanos;
            samples.push(nanos);
            attempted += 1;
        }
    };
    plain_pass(&mut violations);
    let mut tracer = Tracer::new(true);
    let mut traced_ns = 0u64;
    let mut last = None;
    for round in 0..rounds {
        tracer.start_request(round);
        let began = Instant::now();
        let done = recover::recover_traced(w, &mesh, &journal, &written, &mut tracer)?;
        tracer.record_done(began);
        traced_ns += done.wall_ns;
        last = Some(done);
    }
    plain_pass(&mut violations);
    let plain_ns = plain_ns / 2;
    tracer.write_spans(&out_dir.join(format!("trace_{}.jsonl", w.name)))?;
    let last = last.ok_or("no recovery was traced")?;

    let mut v = Values::of(&metrics::per_layer());
    // Every call the step-by-step recovery times is one of its steps.
    let steps = timer_values(&tracer, &mut v, &mut header, |_| true);
    header.push(format!(
        "{rounds} plain recoveries in {:.3} s (mean of a pass before and one after), {rounds} step by step in {:.3} s",
        plain_ns as f64 / 1e9,
        traced_ns as f64 / 1e9
    ));
    v.set(
        "svc.journal_bytes_per_op",
        written.bytes as f64 / c.attempted as f64,
    );
    v.set("svc.records", last.records as f64);
    v.set("svc.replayed_records", last.replayed as f64);
    let coverage = steps as f64 / traced_ns as f64;
    if coverage < MIN_COVERAGE {
        violations.push(format!(
            "the timed steps cover {coverage:.3} of a recovery: a step is not timed"
        ));
    }
    v.set("trace.coverage", coverage);
    v.set(
        "trace.overhead_share",
        (traced_ns as f64 - plain_ns as f64) / plain_ns as f64,
    );
    v.set("fail_share", failed as f64 / attempted.max(1) as f64);
    let lat = stats::summarize(&mut samples).ok_or("no recovery was timed")?;
    header.push(format!(
        "samples: lat_p99_us={} (p{}) unloaded_p50_us={} (recovery has one caller)",
        lat.samples, lat.tail_percentile, lat.samples
    ));
    v.set("lat_p99_us", us(lat.tail_ns));
    v.set("unloaded_p50_us", us(lat.p50_ns));
    v.fill_unset(0.0);
    Ok(Report {
        header,
        values: v,
        attempted,
        failed,
        violations,
    })
}
