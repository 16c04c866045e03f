//! The `serve-mix` workload: an in-process `soccar serve` with two
//! closed-loop clients on loopback. The edit client cycles through the
//! five Table IV variants, each request carrying a fresh inert
//! single-module edit (a report-tier miss that writes every other tier);
//! the repeat client re-sends one already-served request (a report-tier
//! read).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use soccar_serve::{resolve_request, Client, Json, Request, Server, ServerOptions};
use soccar_soc::{CheckKind, CheckSpec, VariantSpec};

use crate::layers::{self, Subject};
use crate::{push_latency, stats, sys, Args, Metric, Outcome, JOBS};

/// Reduced horizon of every serve-mix request (the paper verdicts hold
/// at this horizon; the set-up checks it on the batch path).
const CYCLES: u64 = 10;
const ROUNDS: u64 = 3;

/// Servers bound per run; `setup_s` is the median of their set-up times.
const SETUP_REPS: usize = 5;

/// Idle repeat requests timed before the mixed phase.
const IDLE_REPEATS: usize = 20;

/// How long a traced x10 run drives the serving probe.
const PROBE_SECONDS: u64 = 3;

/// Client socket deadline: a wedged server fails the run instead of
/// hanging it.
const CLIENT_TIMEOUT: Duration = Duration::from_secs(60);

/// One Table IV variant with its batch reference verdict.
struct Variant {
    spec: VariantSpec,
    request: Request,
    /// Canonical JSON of the batch analysis of the unedited source.
    batch_json: Vec<u8>,
    violated: BTreeSet<String>,
}

/// Renders a catalog check in the CLI property grammar.
fn property_spec(check: &CheckSpec) -> String {
    let (name, module, domain) = (&check.name, &check.module, &check.domain);
    match &check.kind {
        CheckKind::SecretCleared { signal, width } => {
            format!("cleared:{name}:{module}:{domain}:{signal}:{width}")
        }
        CheckKind::GuardArmed { signal } => format!("armed:{name}:{module}:{domain}:{signal}"),
        CheckKind::LegalValues {
            signal,
            width,
            allowed,
        } => {
            let allowed: Vec<String> = allowed.iter().map(u64::to_string).collect();
            format!(
                "oneof:{name}:{module}:{signal}:{width}:{}",
                allowed.join("|")
            )
        }
        CheckKind::NeverFlagged { signal } => format!("neverflag:{name}:{module}:{signal}"),
    }
}

/// The variant's request: its source sent as text, with the catalog
/// checks and symbolic inputs spelled out, at the reduced horizon.
fn variant_request(spec: &VariantSpec) -> Request {
    let design = soccar_soc::generate(spec.soc, Some(spec.number));
    let mut req = Request::new("analyze");
    req.file_name = format!("{}_v{}.v", spec.soc.name().to_lowercase(), spec.number);
    req.source = design.source;
    req.top = design.top;
    req.properties = soccar_soc::security_checks(spec.soc)
        .iter()
        .map(property_spec)
        .collect();
    req.symbolic = soccar_soc::symbolic_inputs(spec.soc);
    req.cycles = Some(CYCLES);
    req.rounds = Some(ROUNDS);
    req
}

/// The batch subject a request resolves to — exactly what the server
/// analyses for it.
fn subject_of(req: &Request) -> Result<Subject, String> {
    let (file, source, top, properties, mut config) = resolve_request(req)?;
    config.jobs = JOBS;
    Ok(Subject {
        file,
        source,
        top,
        properties,
        config,
    })
}

/// Appends an inert driven wire named `perf_edit_<n>` to the first
/// module: new structure in one module, unchanged behaviour.
fn edit(source: &str, n: u64) -> String {
    source.replacen(
        "endmodule",
        &format!("  wire perf_edit_{n};\n  assign perf_edit_{n} = 1'b0;\nendmodule"),
        1,
    )
}

/// Which bugs of `spec` a violated-property set detects, and how many
/// violations match no bug.
fn score(spec: &VariantSpec, violated: &BTreeSet<String>) -> (Vec<bool>, usize) {
    let mut explained = BTreeSet::new();
    let detected = spec
        .bugs
        .iter()
        .map(|bug| {
            let detectors = soccar_soc::expected_detectors(spec.soc, bug);
            let hit = detectors.iter().any(|d| violated.contains(d));
            explained.extend(detectors);
            hit
        })
        .collect();
    (detected, violated.difference(&explained).count())
}

/// Reference batch verdicts of the five variants (not measured). Checks
/// the paper verdict on the batch path: every explicit-construct bug
/// detected, the implicit one missed, no false alarm.
fn references(problems: &mut Vec<String>) -> Result<Vec<Variant>, String> {
    let mut out = Vec::new();
    for spec in soccar_soc::variants() {
        let request = variant_request(&spec);
        let report = subject_of(&request)?.analyze()?;
        let violated: BTreeSet<String> = report
            .violations()
            .iter()
            .map(|v| v.property.clone())
            .collect();
        let (detected, false_alarms) = score(&spec, &violated);
        for (bug, hit) in spec.bugs.iter().zip(&detected) {
            if *hit == bug.implicit {
                problems.push(format!(
                    "{}: batch verdict on {} {} bug at {} departs from the paper",
                    spec.name(),
                    if bug.implicit { "implicit" } else { "explicit" },
                    bug.violation,
                    bug.ip
                ));
            }
        }
        if false_alarms > 0 {
            problems.push(format!(
                "{}: {false_alarms} false alarm(s) on the batch path",
                spec.name()
            ));
        }
        let batch_json = report
            .canonical_json()
            .map_err(|e| e.to_string())?
            .into_bytes();
        out.push(Variant {
            spec,
            request,
            batch_json,
            violated,
        });
    }
    Ok(out)
}

/// splitmix64: the seeded stream behind the edit order.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A Fisher–Yates shuffle of `0..n`.
    fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, (self.next() % (i as u64 + 1)) as usize);
        }
        p
    }
}

/// Runs `f` against a freshly bound server (`f` gets its address and the
/// instant just before `Server::bind`), then shuts the server down and
/// waits for it. `f` must drop every connection it opened.
fn with_server<R>(f: impl FnOnce(&str, Instant) -> R) -> Result<R, String> {
    let bind_at = Instant::now();
    let options = ServerOptions {
        jobs: JOBS,
        idle_timeout: Some(CLIENT_TIMEOUT),
        ..ServerOptions::default()
    };
    let server = Server::bind(&options).map_err(|e| format!("bind: {e}"))?;
    let addr = server.local_addr().to_string();
    std::thread::scope(|s| {
        let running = s.spawn(|| server.run());
        let result = f(&addr, bind_at);
        let acknowledged = Client::connect_with(&addr, Some(CLIENT_TIMEOUT))
            .map_err(|e| e.to_string())
            .and_then(|mut c| c.roundtrip(&Request::new("shutdown")));
        if acknowledged.is_err() {
            server.request_shutdown();
            let _ = std::net::TcpStream::connect(&addr);
        }
        match running.join() {
            Ok(Ok(_)) => Ok(result),
            Ok(Err(e)) => Err(format!("server: {e}")),
            Err(_) => Err("server thread panicked".to_owned()),
        }
    })
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect_with(addr, Some(CLIENT_TIMEOUT)).map_err(|e| format!("connect: {e}"))
}

/// Sends one request; returns the latency in ms and the body, or a
/// description of what went wrong (error envelope, `busy`, I/O).
fn request(client: &mut Client, req: &Request) -> Result<(f64, Vec<u8>), String> {
    let t = Instant::now();
    let (envelope, body) = client.roundtrip(req)?;
    let ms = t.elapsed().as_secs_f64() * 1e3;
    if envelope.is_busy() {
        return Err("shed with a busy envelope".to_owned());
    }
    if !envelope.ok {
        return Err(format!("error envelope: {}", envelope.error));
    }
    Ok((ms, body))
}

/// Violated properties and `(covered, total)` targets of an analyze body.
fn verdict(body: &[u8]) -> Result<(BTreeSet<String>, u64, u64), String> {
    let text = std::str::from_utf8(body).map_err(|_| "body is not utf-8")?;
    let json = Json::parse(text).map_err(|e| e.to_string())?;
    let concolic = json.get("concolic").ok_or("body has no `concolic`")?;
    let violated = concolic
        .get("violations")
        .and_then(Json::as_arr)
        .unwrap_or_default()
        .iter()
        .filter_map(|v| v.str_field("property").map(str::to_owned))
        .collect();
    let field = |k: &str| concolic.u64_field(k).ok_or(format!("body has no `{k}`"));
    Ok((violated, field("targets_covered")?, field("targets_total")?))
}

/// Session counters from a `status` request.
fn counters(client: &mut Client) -> Result<Json, String> {
    let (_, body) = request(client, &Request::new("status"))?;
    let json = Json::parse(std::str::from_utf8(&body).map_err(|_| "status is not utf-8")?)
        .map_err(|e| e.to_string())?;
    json.get("counters")
        .cloned()
        .ok_or_else(|| "status has no counters".to_owned())
}

/// Everything one serve-mix session measured.
#[derive(Default)]
struct Mix {
    setup_s: Vec<f64>,
    repeat_idle_ms: Vec<f64>,
    edit_ms: Vec<f64>,
    /// Edit latencies split by variant.
    variant_edit_ms: Vec<Vec<f64>>,
    repeat_ms: Vec<f64>,
    /// Per variant: violated properties and `(covered, total)` of its
    /// first edit response.
    seen: Vec<Option<(BTreeSet<String>, u64, u64)>>,
    /// Status counter deltas over the mixed phase.
    delta: BTreeMap<&'static str, f64>,
    cpu_per_wall: f64,
    attempted: u64,
    problems: Vec<String>,
}

/// Time from `bind_at` to the first warm repeat response on a fresh
/// server: one cold analysis of the repeat request, then the repeat.
fn warm_up(client: &mut Client, repeat: &Variant, bind_at: Instant) -> Result<f64, String> {
    for _ in 0..2 {
        let (_, body) = request(client, &repeat.request)?;
        if body != repeat.batch_json {
            return Err("repeat body differs from the batch canonical JSON".to_owned());
        }
    }
    Ok(bind_at.elapsed().as_secs_f64())
}

const COUNTERS: [&str; 5] = [
    "cache_hits",
    "modules_reparsed",
    "modules_reextracted",
    "targets_rerun",
    "evictions",
];

/// Drives one serve-mix session for at least `duration`, in whole cycles
/// through the five variants.
fn mix(seed: u64, duration: Duration, variants: &[Variant]) -> Result<Mix, String> {
    let repeat = &variants[0];
    let mut m = Mix {
        seen: vec![None; variants.len()],
        variant_edit_ms: vec![Vec::new(); variants.len()],
        ..Mix::default()
    };
    for _ in 1..SETUP_REPS {
        let t = with_server(|addr, bind_at| warm_up(&mut connect(addr)?, repeat, bind_at))??;
        m.setup_s.push(t);
    }
    with_server(|addr, bind_at| -> Result<(), String> {
        let mut repeat_client = connect(addr)?;
        m.setup_s
            .push(warm_up(&mut repeat_client, repeat, bind_at)?);
        // Untimed: serve every variant once, so the mixed phase sees each
        // design warm and every edit re-parses one module.
        for v in &variants[1..] {
            if request(&mut repeat_client, &v.request)?.1 != v.batch_json {
                m.problems.push(format!(
                    "{}: served body differs from the batch canonical JSON",
                    v.spec.name()
                ));
            }
        }
        for _ in 0..IDLE_REPEATS {
            m.repeat_idle_ms
                .push(request(&mut repeat_client, &repeat.request)?.0);
        }
        let mut edit_client = connect(addr)?;
        let before = counters(&mut edit_client)?;

        let done = AtomicBool::new(false);
        let cpu_before = sys::cpu_seconds();
        let started = Instant::now();
        let (edits, repeats) = std::thread::scope(|s| {
            let editor = s.spawn(|| {
                let mut rng = SplitMix(seed);
                let mut out = Vec::new();
                let mut n = 0;
                while started.elapsed() < duration {
                    for vi in rng.permutation(variants.len()) {
                        n += 1;
                        let mut req = variants[vi].request.clone();
                        req.source = edit(&req.source, n);
                        out.push((vi, request(&mut edit_client, &req)));
                    }
                }
                done.store(true, Ordering::Release);
                out
            });
            let repeater = s.spawn(|| {
                let mut out = Vec::new();
                while !done.load(Ordering::Acquire) {
                    out.push(request(&mut repeat_client, &repeat.request));
                }
                out
            });
            (editor.join(), repeater.join())
        });
        let wall = started.elapsed().as_secs_f64();
        m.cpu_per_wall = (sys::cpu_seconds() - cpu_before) / wall;
        let edits = edits.map_err(|_| "edit client panicked")?;
        let repeats = repeats.map_err(|_| "repeat client panicked")?;

        for (vi, outcome) in edits {
            m.attempted += 1;
            let v = &variants[vi];
            match outcome.and_then(|(ms, body)| Ok((ms, verdict(&body)?))) {
                Err(e) => m.problems.push(format!("{} edit: {e}", v.spec.name())),
                Ok((ms, (violated, covered, total))) => {
                    m.edit_ms.push(ms);
                    m.variant_edit_ms[vi].push(ms);
                    if violated != v.violated {
                        m.problems.push(format!(
                            "{} edit: violated {violated:?}, batch verdict {:?}",
                            v.spec.name(),
                            v.violated
                        ));
                    }
                    m.seen[vi].get_or_insert((violated, covered, total));
                }
            }
        }
        for outcome in repeats {
            m.attempted += 1;
            match outcome {
                Err(e) => m.problems.push(format!("repeat: {e}")),
                Ok((_, body)) if body != repeat.batch_json => m
                    .problems
                    .push("repeat body differs from the batch canonical JSON".to_owned()),
                Ok((ms, _)) => m.repeat_ms.push(ms),
            }
        }
        let after = counters(&mut edit_client)?;
        for name in COUNTERS {
            let get = |c: &Json| c.u64_field(name).unwrap_or(0) as f64;
            m.delta.insert(name, get(&after) - get(&before));
        }
        // Every repeat is a report-tier read and no edit is.
        let hits = m.delta["cache_hits"];
        if hits != m.repeat_ms.len() as f64 {
            m.problems.push(format!(
                "{hits} report-tier hits for {} repeats (edits must all miss)",
                m.repeat_ms.len()
            ));
        }
        Ok(())
    })??;
    Ok(m)
}

/// Cold batch analyses of one fresh edit per variant (ms each), the
/// denominator of `serve.warm_over_cold`.
fn edit_cold_ms(variants: &[Variant]) -> Result<Vec<f64>, String> {
    variants
        .iter()
        .map(|v| {
            let mut req = v.request.clone();
            req.source = edit(&req.source, 0);
            let subject = subject_of(&req)?;
            let t = Instant::now();
            subject.analyze()?;
            Ok(t.elapsed().as_secs_f64() * 1e3)
        })
        .collect()
}

/// The `serve.*` per-layer metrics of one session.
fn serve_metrics(m: &Mix, cold_ms: &[f64], out: &mut Vec<Metric>) {
    let edits = m.edit_ms.len().max(1) as f64;
    let idle = stats::median(&m.repeat_idle_ms).unwrap_or(0.0);
    let repeat_p50 = stats::median(&m.repeat_ms).unwrap_or(0.0);
    let edit_p50 = stats::median(&m.edit_ms).unwrap_or(0.0);
    let cold = stats::median(cold_ms).unwrap_or(0.0);
    push_latency(out, "serve.edit", &m.edit_ms);
    push_latency(out, "serve.repeat", &m.repeat_ms);
    let n = |k: usize| format!("p50, n={k}");
    Outcome::push(
        out,
        "serve.repeat_idle_ms",
        idle,
        "ms",
        n(m.repeat_idle_ms.len()),
    );
    Outcome::push(
        out,
        "serve.lock_wait_ms",
        stats::lock_wait_ms(repeat_p50, idle),
        "ms",
        String::new(),
    );
    Outcome::push(out, "serve.edit_cold_ms", cold, "ms", n(cold_ms.len()));
    Outcome::push(
        out,
        "serve.warm_over_cold",
        edit_p50 / cold.max(1e-9),
        "ratio",
        String::new(),
    );
    for (metric, counter, per_edit) in [
        ("serve.modules_reparsed", "modules_reparsed", true),
        ("serve.modules_reextracted", "modules_reextracted", true),
        ("serve.targets_rerun", "targets_rerun", true),
        ("serve.report_hits", "cache_hits", false),
        ("serve.evictions", "evictions", false),
    ] {
        let v = m.delta[counter];
        let (value, note) = if per_edit {
            (v / edits, "per edit".to_owned())
        } else {
            (v, "whole session".to_owned())
        };
        Outcome::push(out, metric, value, "count", note);
    }
}

fn fold_problems(out: &mut Outcome, m: &Mix) {
    out.attempted += m.attempted;
    for p in &m.problems {
        out.fail(p.clone());
    }
}

/// Runs the `serve-mix` workload.
///
/// # Errors
///
/// On a failure to run the session at all (bind, connect, pipeline).
pub fn run(args: &Args) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut reference_problems = Vec::new();
    let variants = references(&mut reference_problems)?;
    for p in reference_problems {
        out.fail(p);
    }
    let m = mix(args.seed, args.seconds, &variants)?;
    fold_problems(&mut out, &m);

    let mut detected = 0;
    let mut bugs = 0;
    let mut false_alarms = 0;
    let (mut covered, mut total) = (0, 0);
    for (v, seen) in variants.iter().zip(&m.seen) {
        let Some((violated, c, t)) = seen else {
            out.fail(format!("{}: no successful edit response", v.spec.name()));
            continue;
        };
        let (hits, alarms) = score(&v.spec, violated);
        detected += hits.iter().filter(|h| **h).count();
        bugs += hits.len();
        false_alarms += alarms;
        covered += c;
        total += t;
    }

    let e2e = &mut out.end_to_end;
    // Mean of the per-variant medians: the five designs differ in cost,
    // so a median over the pooled edits would depend on how many edits
    // of each the time allowed.
    let medians: Vec<f64> = m
        .variant_edit_ms
        .iter()
        .filter_map(|v| stats::median(v))
        .collect();
    let edit_p50_s = medians.iter().sum::<f64>() / medians.len().max(1) as f64 / 1e3;
    Outcome::push(
        e2e,
        "setup_s",
        stats::median(&m.setup_s).unwrap_or(0.0),
        "s",
        format!("p50, n={}", m.setup_s.len()),
    );
    Outcome::push(
        e2e,
        "analysis_s",
        edit_p50_s,
        "s",
        format!(
            "edit requests, mean of per-variant p50s, n={}",
            m.edit_ms.len()
        ),
    );
    Outcome::push(
        e2e,
        "peak_rss_mb",
        sys::peak_rss_mb(),
        "MiB",
        "VmHWM".into(),
    );
    Outcome::push(
        e2e,
        "coverage",
        covered as f64 / total.max(1) as f64,
        "frac",
        "AR_CFG targets, five variants".into(),
    );
    Outcome::push(
        e2e,
        "recall",
        detected as f64 / bugs.max(1) as f64,
        "frac",
        format!("{detected}/{bugs} Table IV bugs"),
    );

    push_latency(&mut out.extra, "edit", &m.edit_ms);
    push_latency(&mut out.extra, "repeat", &m.repeat_ms);
    Outcome::push(
        &mut out.extra,
        "false_alarms",
        false_alarms as f64,
        "count",
        String::new(),
    );

    if args.trace {
        let cold_ms = edit_cold_ms(&variants)?;
        serve_metrics(&m, &cold_ms, &mut out.per_layer);
        Outcome::push(
            &mut out.per_layer,
            "exec.cpu_per_wall",
            m.cpu_per_wall,
            "ratio",
            "serving phase".into(),
        );
        trace_layers(args, &variants[0], cold_ms[0], &mut out)?;
    }
    let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
    Outcome::push(
        &mut out.extra,
        "failed_frac",
        failed_frac,
        "frac",
        String::new(),
    );
    Ok(out)
}

/// The non-serving per-layer metrics on serve-mix: layer probes and one
/// traced batch analysis of an edit of `variant`; the trace overhead is
/// taken against that edit's untraced cold time.
fn trace_layers(
    args: &Args,
    variant: &Variant,
    cold_ms: f64,
    out: &mut Outcome,
) -> Result<(), String> {
    let mut req = variant.request.clone();
    req.source = edit(&req.source, 0);
    let subject = subject_of(&req)?;
    let recorder = soccar_obs::Recorder::enabled();
    let t = Instant::now();
    let report = subject.analyze_with(recorder.clone())?;
    let traced_ms = t.elapsed().as_secs_f64() * 1e3;
    let violated: BTreeSet<String> = report
        .violations()
        .iter()
        .map(|v| v.property.clone())
        .collect();
    if violated != variant.violated {
        out.fail(format!(
            "{}: traced analysis verdict differs from the batch verdict",
            variant.spec.name()
        ));
    }
    let snap = recorder.snapshot();
    let layer = &mut out.per_layer;
    let sim_round_ms = layers::probe(&subject, &recorder, layer)?;
    layers::from_trace(&snap, sim_round_ms, layer);
    sys::write_trace(&args.trace_out, &recorder.snapshot())?;
    Outcome::push(
        layer,
        "obs.trace_overhead_frac",
        traced_ms / cold_ms - 1.0,
        "frac",
        format!("traced {traced_ms:.1} ms vs untraced {cold_ms:.1} ms"),
    );
    Ok(())
}

/// The serving probe of traced x10 runs: a short serve-mix session on
/// the Table IV variants, reported as the `serve.*` per-layer metrics.
///
/// # Errors
///
/// As [`run`].
pub fn probe(args: &Args, out: &mut Outcome) -> Result<(), String> {
    let mut problems = Vec::new();
    let variants = references(&mut problems)?;
    for p in problems {
        out.fail(p);
    }
    let m = mix(args.seed, Duration::from_secs(PROBE_SECONDS), &variants)?;
    fold_problems(out, &m);
    let cold_ms = edit_cold_ms(&variants)?;
    serve_metrics(&m, &cold_ms, &mut out.per_layer);
    Ok(())
}
