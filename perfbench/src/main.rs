//! `openflame-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Builds the workload's deployment (median of several set-ups), drives
//! its seeded open-loop trace through `OpenFlameClient` for `--seconds`,
//! checks every answer, prints a human-readable table and, as the last
//! line, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics; `--trace 1`
//! runs the middle half of the trace traced, the quarters around it
//! untraced, and reports the per-layer metrics of the traced half. A
//! wrong answer exits non-zero.

use openflame_codec::from_bytes;
use openflame_core::{DiscoveryStats, SessionStats};
use openflame_dns::ResolverStats;
use openflame_mapserver::protocol::Response;
use openflame_netsim::{NetStats, QuicStats};
use openflame_perfbench::pin::{self, pin_to_first_cpu};
use openflame_perfbench::report::{
    machine_steal_us, median, process_cpu_us, quantile, result_line, Metric,
};
use openflame_perfbench::spans::{breakdown, CLASSES, SERVICE_KINDS};
use openflame_perfbench::workload::{drive, specs, Arrival, Bench, Ctx, Failure, Spec, UPDATE};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// End-to-end latency classes every workload reports a median for.
const E2E_CLASSES: [&str; 5] = ["search", "route", "localize", "tile", "geocode"];
/// Set-ups per run: at least this many...
const SETUP_MIN: usize = 10;
/// ...and more until this much time has passed...
const SETUP_BUDGET: Duration = Duration::from_secs(3);
/// ...but never more than this many.
const SETUP_MAX: usize = 40;
/// A class reports its p99 only with at least this many samples.
const P99_MIN_SAMPLES: usize = 1_000;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Counters read around a measured window.
struct Counters {
    net: NetStats,
    session: SessionStats,
    discovery: DiscoveryStats,
    resolver: ResolverStats,
    served: u64,
    shed: u64,
    quic: Option<QuicStats>,
    cpu_us: u64,
    steal_us: u64,
}

impl Counters {
    fn read(bench: &Bench) -> Self {
        let dep = &bench.dep;
        Self {
            net: dep.transport.stats(),
            session: dep.client.session().stats(),
            discovery: dep.client.discovery().stats(),
            resolver: dep.resolver.stats(),
            served: dep
                .venue_servers
                .iter()
                .chain([&dep.outdoor_server])
                .map(|s| s.stats().served.values().sum::<u64>())
                .sum(),
            shed: dep.transport.shed_requests(),
            quic: bench.quic.as_ref().map(|q| q.quic_stats()),
            cpu_us: process_cpu_us(),
            steal_us: machine_steal_us(),
        }
    }
}

/// One measured window: tallies, wall time and counters around it.
struct Window {
    ctx: Ctx,
    wall: Duration,
    before: Counters,
    after: Counters,
}

impl Window {
    fn run(bench: &Bench, trace: &[Arrival]) -> Self {
        let before = Counters::read(bench);
        let (ctx, wall) = drive(bench, trace);
        let after = Counters::read(bench);
        Self {
            ctx,
            wall,
            before,
            after,
        }
    }

    fn ops(&self) -> f64 {
        self.ctx.attempted.max(1) as f64
    }

    fn per_op(&self, delta: u64) -> f64 {
        delta as f64 / self.ops()
    }

    fn cpu_us(&self) -> u64 {
        self.after.cpu_us - self.before.cpu_us
    }

    fn cpu_us_per_op(&self) -> f64 {
        self.per_op(self.cpu_us())
    }

    /// Share of the machine's CPU time the host stole during the
    /// window, percent: the interference every timing here absorbs.
    fn steal_pct(&self) -> f64 {
        let steal = (self.after.steal_us - self.before.steal_us) as f64;
        100.0 * steal / (self.wall.as_secs_f64() * 1e6 * pin::cores() as f64)
    }
}

/// Builds the bench at least `SETUP_MIN` times, and again until
/// `SETUP_BUDGET` has passed (at most `SETUP_MAX` times), keeping the
/// last one; returns it with the median set-up time. A traced run does
/// not report `setup_s` and builds once.
fn setup(args: &Args, spec: &Spec) -> Result<(Bench, f64), Failure> {
    let started = Instant::now();
    let (min, max) = if args.trace {
        (1, 1)
    } else {
        (SETUP_MIN, SETUP_MAX)
    };
    let mut times = Vec::new();
    let mut bench = None;
    while times.len() < min || (started.elapsed() < SETUP_BUDGET && times.len() < max) {
        // The previous deployment shuts down before the next is timed.
        drop(bench.take());
        let start = Instant::now();
        bench = Some(Bench::setup(spec, args.seed, args.trace)?);
        times.push(start.elapsed().as_secs_f64());
    }
    Ok((bench.expect("at least one set-up"), median(&mut times)))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(spec) = specs().into_iter().find(|s| s.name == args.workload) else {
        eprintln!("error: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    // Counted before the process is pinned to one of them.
    let cores = pin::cores();
    let cpu = match pin_to_first_cpu() {
        Ok(cpu) => cpu,
        Err(e) => {
            eprintln!("error: cannot pin to one CPU: {e}");
            return ExitCode::FAILURE;
        }
    };
    let (bench, setup_s) = match setup(&args, &spec) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: set-up failed: {e:?}");
            return ExitCode::FAILURE;
        }
    };
    let trace = bench.trace(args.seed, args.seconds);
    println!(
        "workload {} seed {} seconds {} backend {} generators {} cpu {cpu} of {cores} arrivals {} setup_s {setup_s:.3}",
        bench.spec.name,
        args.seed,
        args.seconds,
        bench.dep.transport.kind(),
        bench.generators(),
        trace.len()
    );
    let (window, metrics) = if args.trace {
        traced(&bench, &trace, args.seconds)
    } else {
        let window = Window::run(&bench, &trace);
        let metrics = end_to_end(&window, setup_s);
        (window, metrics)
    };
    let ctx = &window.ctx;
    for msg in &ctx.wrong {
        eprintln!("wrong answer: {msg}");
    }
    let correct = ctx.wrong_count == 0;
    println!(
        "{}",
        result_line(correct, ctx.attempted, ctx.failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The end-to-end metrics of an untraced window; prints the full table
/// (with sample counts and tails) on the way.
fn end_to_end(w: &Window, setup_s: f64) -> Vec<Metric> {
    let mut metrics = vec![Metric::new("setup_s", setup_s, "s")];
    let mut samples = w.ctx.samples.clone();
    for (class, s) in CLASSES.iter().zip(samples.iter_mut()) {
        let n = s.len();
        if n == 0 {
            continue;
        }
        let p50 = median(s);
        println!("{class}_p50_us {p50:.1} us (n={n})");
        if n >= P99_MIN_SAMPLES {
            let p99 = quantile(s, 0.99).expect("non-empty");
            println!("{class}_p99_us {p99:.1} us (n={n})");
        }
        if E2E_CLASSES.contains(class) {
            metrics.push(Metric::new(format!("{class}_p50_us"), p50, "us"));
        }
    }
    let served = w.ctx.attempted - w.ctx.failed - w.ctx.wrong_count;
    let served_ops_s = served as f64 / w.wall.as_secs_f64();
    let failed_ratio = w.ctx.failed as f64 / w.ops();
    let wire = w.per_op(w.after.net.bytes - w.before.net.bytes);
    let cpu = w.cpu_us_per_op();
    println!(
        "served_ops_s {served_ops_s:.1} ops/s (served {served} of {} attempted)",
        w.ctx.attempted
    );
    println!("failed_ratio {failed_ratio:.5} ({} failed)", w.ctx.failed);
    println!("wire_bytes_per_op {wire:.1} B");
    println!("cpu_us_per_op {cpu:.1} us");
    println!(
        "steal_pct {:.1} % (host steal over the machine's CPUs)",
        w.steal_pct()
    );
    metrics.push(Metric::new("served_ops_s", served_ops_s, "ops/s"));
    metrics.push(Metric::new("wire_bytes_per_op", wire, "B"));
    metrics.push(Metric::new("cpu_us_per_op", cpu, "us"));
    metrics
}

/// Median latency over every served op of every class of `windows`.
fn pooled_p50(windows: &[&Window]) -> f64 {
    let mut all: Vec<f64> = windows
        .iter()
        .flat_map(|w| w.ctx.samples.iter().flatten().copied())
        .collect();
    median(&mut all)
}

/// The arrivals due in `[lo_us, hi_us)`, rebased to start at `lo_us`.
fn slice(trace: &[Arrival], lo_us: u64, hi_us: u64) -> Vec<Arrival> {
    trace
        .iter()
        .filter(|a| (lo_us..hi_us).contains(&a.at_us))
        .map(|a| Arrival {
            at_us: a.at_us - lo_us,
            ..a.clone()
        })
        .collect()
}

/// Runs the middle half of the trace traced and the quarters around it
/// untraced, and returns the traced window with its per-layer metrics.
fn traced(bench: &Bench, trace: &[Arrival], seconds: f64) -> (Window, Vec<Metric>) {
    let tracer = bench
        .tracer
        .as_ref()
        .expect("traced set-up installs a tracer");
    // Untraced quarters on both sides of the traced half, so drift
    // over the run does not pass for tracing overhead.
    let quarter = (seconds * 250_000.0) as u64;
    let head = Window::run(bench, &slice(trace, 0, quarter));
    tracer.set_enabled(true);
    let second = slice(trace, quarter, 3 * quarter);
    let w = Window::run(bench, &second);
    tracer.set_enabled(false);
    let tail = Window::run(bench, &slice(trace, 3 * quarter, u64::MAX));
    let (spans, dropped) = tracer.spans();
    let b = breakdown(&spans);
    println!(
        "spans {} dropped {dropped} unlinked_services {}",
        spans.len(),
        b.unlinked_services
    );

    let p50 = |v: &[f64]| median(&mut v.to_vec());
    let p99 = |v: &[f64]| quantile(&mut v.to_vec(), 0.99).unwrap_or(0.0);
    let ratio = |hits: u64, total: u64| hits as f64 / total.max(1) as f64;
    let per_kop = |delta: u64| 1_000.0 * w.per_op(delta);
    let dep = &bench.dep;
    let (s0, s1) = (&w.before.session, &w.after.session);
    let (r0, r1) = (&w.before.resolver, &w.after.resolver);
    let hello_hits = s1.hello_hits - s0.hello_hits;
    let hellos = hello_hits + s1.hello_misses - s0.hello_misses;
    let discovery_hits = s1.discovery_hits - s0.discovery_hits;
    let discoveries = discovery_hits + s1.discovery_misses - s0.discovery_misses;
    let queries = r1.queries - r0.queries;
    let evictions =
        s1.cache_evictions - s0.cache_evictions + s1.coverage_evictions - s0.coverage_evictions;
    let depth = dep
        .venue_servers
        .iter()
        .chain([&dep.outdoor_server])
        .map(|s| dep.transport.dispatch_depth(s.endpoint()))
        .max()
        .unwrap_or(0);
    let (packets, retransmits) = match (&w.before.quic, &w.after.quic) {
        (Some(q0), Some(q1)) => (
            q1.packets_sent - q0.packets_sent,
            q1.retransmits - q0.retransmits,
        ),
        _ => (0, 0),
    };
    let overhead = |traced: f64, plain: f64| {
        if plain > 0.0 {
            100.0 * (traced / plain - 1.0)
        } else {
            0.0
        }
    };

    let mut m = Vec::new();
    let mut put =
        |name: &str, value: f64, unit: &'static str| m.push(Metric::new(name, value, unit));
    for (i, class) in CLASSES.iter().enumerate() {
        if E2E_CLASSES.contains(class) {
            put(
                &format!("core.client.self_us.{class}"),
                p50(&b.client_self_us[i]),
                "us",
            );
            put(
                &format!("netsim.wire_self_us.{class}"),
                p50(&b.op_wire_self_us[i]),
                "us",
            );
            put(
                &format!("server.service_us.{class}"),
                p50(&b.op_service_us[i]),
                "us",
            );
        }
    }
    put(
        "core.session.envelopes_per_op",
        w.per_op(s1.batches - s0.batches),
        "count",
    );
    put(
        "core.session.hello_hit_ratio",
        ratio(hello_hits, hellos),
        "ratio",
    );
    put("core.session.hello_lookups", hellos as f64, "count");
    put(
        "core.session.discovery_hit_ratio",
        ratio(discovery_hits, discoveries),
        "ratio",
    );
    put(
        "core.session.discovery_lookups",
        discoveries as f64,
        "count",
    );
    put("core.session.cache_evictions", evictions as f64, "count");
    put(
        "core.session.busy_retries_per_kop",
        per_kop(s1.busy_retries - s0.busy_retries),
        "count",
    );
    for metric in plan_metrics(bench, &second) {
        put(&metric.name, metric.value, metric.unit);
    }
    let lookups = w.after.discovery.lookups - w.before.discovery.lookups;
    put("core.discovery.lookups_per_op", w.per_op(lookups), "count");
    put(
        "dns.resolver.cache_hit_ratio",
        ratio(r1.cache_hits - r0.cache_hits, queries),
        "ratio",
    );
    put("dns.resolver.queries", queries as f64, "count");
    let upstream = r1.upstream_queries - r0.upstream_queries;
    put(
        "dns.resolver.upstream_per_query",
        ratio(upstream, queries),
        "count",
    );
    put("dns.auth.service_us", p50(&b.dns_us), "us");
    put("netsim.call_us", p50(&b.call_us), "us");
    put("netsim.call_p99_us", p99(&b.call_us), "us");
    put("netsim.wire_self_us", p50(&b.wire_self_us), "us");
    let messages = w.after.net.messages - w.before.net.messages;
    put("netsim.messages_per_op", w.per_op(messages), "count");
    put("netsim.dispatch_depth_max", depth as f64, "count");
    put(
        "netsim.shed_per_kop",
        per_kop(w.after.shed - w.before.shed),
        "count",
    );
    put(
        "netsim.worker_threads",
        dep.transport.worker_threads() as f64,
        "count",
    );
    put("netsim.quic.packets_per_op", w.per_op(packets), "count");
    put(
        "netsim.quic.retransmits_per_op",
        w.per_op(retransmits),
        "count",
    );
    put("codec.request_bytes_p50", p50(&b.request_bytes), "B");
    put("codec.response_bytes_p50", p50(&b.response_bytes), "B");
    put(
        "codec.decode_us.tile",
        tile_decode_us(&tracer.tile_payloads()),
        "us",
    );
    for (kind, times) in SERVICE_KINDS.iter().zip(&b.mapserver_us) {
        put(&format!("mapserver.service_us.{kind}"), p50(times), "us");
    }
    put(
        "mapserver.requests_per_op",
        w.per_op(w.after.served - w.before.served),
        "count",
    );
    put("update_p50_us", p50(&w.ctx.samples[UPDATE]), "us");
    put("bench.gen_lag_p99_us", p99(&w.ctx.lag_us), "us");
    let p50_overhead = overhead(pooled_p50(&[&w]), pooled_p50(&[&head, &tail]));
    put("bench.trace_overhead_p50_pct", p50_overhead, "%");
    let plain_cpu = (head.cpu_us() + tail.cpu_us()) as f64 / (head.ops() + tail.ops());
    let cpu_overhead = overhead(w.cpu_us_per_op(), plain_cpu);
    put("bench.trace_overhead_cpu_pct", cpu_overhead, "%");
    put("bench.spans_dropped", dropped as f64, "count");
    put("bench.trace_hook_us", p50(&b.hook_us), "us");
    put("bench.steal_pct", w.steal_pct(), "%");
    for metric in &m {
        println!("{} {:.3} {}", metric.name, metric.value, metric.unit);
    }
    // The untraced quarters' answers count too.
    let mut w = w;
    w.ctx.merge(head.ctx);
    w.ctx.merge(tail.ctx);
    (w, m)
}

/// Planner accounting: re-plans every plannable op of the traced window
/// through `plan_query` after the run (discovery already cached, so the
/// timing is planning alone).
fn plan_metrics(bench: &Bench, trace: &[Arrival]) -> Vec<Metric> {
    let client = &bench.dep.client;
    let (mut consulted, mut pruned, mut considered, mut plans) = (0usize, 0usize, 0usize, 0usize);
    let mut plan_us = Vec::new();
    for (kind, at, radius) in trace
        .iter()
        .flat_map(|a| a.steps.iter())
        .filter_map(|s| s.plan_probe())
        .take(2_000)
    {
        // The first call fills the discovery cache; the second is timed.
        if client.plan_query(kind, at, radius).is_err() {
            continue;
        }
        let start = Instant::now();
        let Ok(plan) = client.plan_query(kind, at, radius) else {
            continue;
        };
        plan_us.push(start.elapsed().as_secs_f64() * 1e6);
        consulted += plan.consulted();
        pruned += plan.pruned_count();
        considered += plan.considered();
        plans += 1;
    }
    let per = |n: usize| n as f64 / plans.max(1) as f64;
    vec![
        Metric::new("core.plan.consulted_per_op", per(consulted), "count"),
        Metric::new("core.plan.pruned_per_op", per(pruned), "count"),
        Metric::new("core.plan.considered_per_op", per(considered), "count"),
        Metric::new("core.plan.plan_us", median(&mut plan_us), "us"),
    ]
}

/// Median time to decode one captured tile response, microseconds.
fn tile_decode_us(payloads: &[&[u8]]) -> f64 {
    let mut times = Vec::new();
    for payload in payloads {
        for _ in 0..5 {
            let start = Instant::now();
            let decoded = from_bytes::<Response>(std::hint::black_box(payload));
            times.push(start.elapsed().as_secs_f64() * 1e6);
            assert!(
                matches!(decoded, Ok(Response::Batch(_)) | Ok(Response::Tile { .. })),
                "captured tile payload must decode"
            );
        }
    }
    median(&mut times)
}
