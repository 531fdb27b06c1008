//! The three serve workloads: one in-process `SolveServer` with its default
//! configuration, driven by exactly two closed-loop tenants — each on its own
//! connection, each waiting for a reply before it sends its next request.

use crate::check::{self, Answer, Tally};
use crate::inputs::{self, Rng};
use crate::metrics::{RunArgs, RunResult, Values};
use crate::trace::{self, Recorder};
use crate::{host, layers, stats};
use msplit_comm::Message;
use msplit_core::solver::{Method, MultisplittingConfig};
use msplit_core::PreparedSystem;
use msplit_direct::SolverKind;
use msplit_engine::{Engine, EngineConfig, RhsPayload, SolveRequest};
use msplit_serve::{codec, ClientOptions, ServeClient, ServeConfig, SolveServer};
use msplit_sparse::CsrMatrix;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// Order of every served matrix.
const ORDER: usize = 2000;
/// Matrices the warm tenants cycle through; the server's cache holds eight.
const HOT_KEYS: usize = 4;
const RHS_PER_KEY: usize = 4;
/// Length of the seeded key sequence both warm tenants walk.
const KEY_SEQUENCE: usize = 256;
/// Replies per tenant compared bitwise with a direct `PreparedSystem::solve`.
const BITWISE_CHECKED: usize = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scenario {
    /// Both tenants warm: every request a cache hit, every request coalescible.
    Warm,
    /// Both tenants cold: every request a never-seen matrix.
    Cold,
    /// Tenant 0 warm, tenant 1 cold.
    Mixed,
}

pub fn scenario(name: &str) -> Option<Scenario> {
    match name {
        "serve_warm" => Some(Scenario::Warm),
        "serve_cold" => Some(Scenario::Cold),
        "serve_mixed" => Some(Scenario::Mixed),
        _ => None,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// Sends hot keys only, walking the shared key sequence.
    Warm,
    /// Sends a matrix the server has never seen on every request.
    Cold,
}

impl Role {
    /// Untimed requests that end the tenant's set-up.
    fn warmup(self) -> usize {
        match self {
            Role::Warm => 50,
            Role::Cold => 10,
        }
    }

    /// `peak_rss_mb` is read when the tenant has sent this many timed
    /// requests: a fixed amount of work, so that a faster server, which
    /// answers more requests in the same time, is not charged for them.
    fn rss_after(self) -> usize {
        match self {
            Role::Warm => 100,
            Role::Cold => 30,
        }
    }
}

impl Scenario {
    fn roles(self) -> [Role; 2] {
        match self {
            Scenario::Warm => [Role::Warm, Role::Warm],
            Scenario::Cold => [Role::Cold, Role::Cold],
            Scenario::Mixed => [Role::Warm, Role::Cold],
        }
    }

    /// The role whose latency is the workload's end-to-end latency.  On
    /// `serve_mixed` that is the warm tenant: the cold path has `serve_cold`.
    fn measured(self) -> Role {
        match self {
            Scenario::Cold => Role::Cold,
            Scenario::Warm | Scenario::Mixed => Role::Warm,
        }
    }
}

/// Everything generated from the seed.
struct Inputs {
    seed: u64,
    config: MultisplittingConfig,
    hot: Vec<Arc<CsrMatrix>>,
    /// `[tenant][key]` → right-hand sides, distinct per tenant.
    hot_rhs: Vec<Vec<Vec<Vec<f64>>>>,
    keys: Vec<usize>,
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        let hot: Vec<Arc<CsrMatrix>> = (0..HOT_KEYS)
            .map(|k| {
                let matrix_seed = Rng::new(seed, 10 + k as u64).next_u64();
                Arc::new(inputs::diag_dominant(ORDER, matrix_seed))
            })
            .collect();
        let hot_rhs = (0..2)
            .map(|tenant| {
                hot.iter()
                    .enumerate()
                    .map(|(k, a)| {
                        let mut rng = Rng::new(seed, 100 + 10 * tenant + k as u64);
                        inputs::rhs_pool(a, &mut rng, RHS_PER_KEY)
                    })
                    .collect()
            })
            .collect();
        let mut rng = Rng::new(seed, 2);
        Inputs {
            seed,
            config: inputs::solve_config(2, SolverKind::SparseLu, Method::Stationary),
            hot,
            hot_rhs,
            keys: (0..KEY_SEQUENCE).map(|_| rng.below(HOT_KEYS)).collect(),
        }
    }

    /// The matrix and right-hand side of a cold tenant's request `i`: a pure
    /// function of the seed, so the check can build them again.
    fn cold_request(&self, tenant: usize, i: usize) -> (CsrMatrix, Vec<f64>) {
        let stream = ((tenant as u64 + 1) << 32) | i as u64;
        let mut rng = Rng::new(self.seed, stream);
        let a = inputs::diag_dominant(ORDER, rng.next_u64());
        let b = inputs::rhs_pool(&a, &mut rng, 1).remove(0);
        (a, b)
    }
}

/// A running server and its two tenants' clients.
struct Fleet {
    server: SolveServer,
    clients: Vec<ServeClient>,
}

impl Fleet {
    /// Closes the tenants' connections, then stops the server.
    fn shutdown(self) {
        drop(self.clients);
        self.server.shutdown();
    }
}

/// What a tenant asked, kept with the reply for the bitwise comparison.
struct Kept {
    request: usize,
    x: Vec<f64>,
}

/// One tenant's record of a phase.
#[derive(Default)]
struct TenantLog {
    ms: Vec<f64>,
    /// Whether the request behind each entry of `ms` ran under a span.
    spanned: Vec<bool>,
    peak_rss_mb: f64,
    queue_us: Vec<f64>,
    /// Replies that shared their sweep with another request.
    coalesced: u64,
    tally: Tally,
    kept: Vec<Kept>,
    spans: Option<Recorder>,
}

/// When a phase ends: after a request count per tenant, or at a deadline.
#[derive(Clone, Copy)]
enum Until {
    Requests([usize; 2]),
    Deadline(Instant),
}

/// A tenant's closed loop: requests `first..` until `until`.  Inputs of a
/// request are made, and its reply is checked, between requests.  With an
/// epoch every second request is a root span.
fn tenant_loop(
    client: &ServeClient,
    inputs: &Inputs,
    (tenant, role): (usize, Role),
    first: usize,
    until: Until,
    epoch: Option<Instant>,
) -> (TenantLog, usize) {
    let mut log = TenantLog {
        spans: epoch.map(Recorder::new),
        ..Default::default()
    };
    let timed = matches!(until, Until::Deadline(_));
    let mut i = first;
    loop {
        match until {
            Until::Requests(count) if i - first >= count[tenant] => break,
            Until::Deadline(t) if Instant::now() >= t => break,
            _ => {}
        }
        let cold;
        let (a, b): (&CsrMatrix, &[f64]) = match role {
            Role::Warm => {
                let key = inputs.keys[i % inputs.keys.len()];
                (
                    &inputs.hot[key],
                    &inputs.hot_rhs[tenant][key][i % RHS_PER_KEY],
                )
            }
            Role::Cold => {
                cold = inputs.cold_request(tenant, i);
                (&cold.0, &cold.1)
            }
        };
        let op = ((tenant as u64) << 32) | i as u64;
        let span = log
            .spans
            .as_mut()
            .filter(|_| trace::under_span(i, RHS_PER_KEY))
            .map(|r| (r.open("serve.request", op, None), r));
        let t0 = Instant::now();
        let reply = client.solve(a, &inputs.config, b);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let spanned = span.is_some();
        if let Some((id, r)) = span {
            r.close(id, reply.as_ref().map_or(0, |s| s.coalesced));
        }
        let answer = reply.as_ref().map(|s| Answer {
            x: &s.x,
            // A served reply is a converged solve; anything else is a `Reject`.
            converged: true,
        });
        if log.tally.record(check::check(a, b, answer)) {
            let reply = reply.expect("a passing request has a reply");
            log.ms.push(ms);
            log.spanned.push(spanned);
            log.queue_us.push(reply.queue_micros as f64);
            log.coalesced += u64::from(reply.coalesced > 1);
            if timed && log.kept.len() < BITWISE_CHECKED {
                log.kept.push(Kept {
                    request: i,
                    x: reply.x,
                });
            }
        }
        i += 1;
        if timed && i - first == role.rss_after() {
            log.peak_rss_mb = host::peak_rss_mb();
        }
    }
    if timed && i - first < role.rss_after() {
        log.peak_rss_mb = host::peak_rss_mb();
    }
    (log, i)
}

/// Runs both tenants through one phase, starting together.  Returns their
/// logs and the phase's wall time; `next` carries each tenant's request
/// index from phase to phase.
fn phase(
    fleet: &Fleet,
    inputs: &Inputs,
    roles: [Role; 2],
    next: &mut [usize; 2],
    until: Until,
    epoch: Option<Instant>,
) -> (Vec<TenantLog>, f64) {
    let barrier = Barrier::new(2);
    let first = *next;
    let results: Vec<(TenantLog, usize, Instant, Instant)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2)
            .map(|tenant| {
                let (barrier, client) = (&barrier, &fleet.clients[tenant]);
                scope.spawn(move || {
                    barrier.wait();
                    let started = Instant::now();
                    let who = (tenant, roles[tenant]);
                    let (log, next) = tenant_loop(client, inputs, who, first[tenant], until, epoch);
                    (log, next, started, Instant::now())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("tenant thread"))
            .collect()
    });
    let started = results.iter().map(|r| r.2).min().expect("two tenants");
    let ended = results.iter().map(|r| r.3).max().expect("two tenants");
    let mut logs = Vec::new();
    for (tenant, (log, index, _, _)) in results.into_iter().enumerate() {
        next[tenant] = index;
        logs.push(log);
    }
    (logs, (ended - started).as_secs_f64())
}

/// Starts the server, connects both tenants, warms the hot keys and runs the
/// warm-up requests; `setup_s` is the wall time of this function together
/// with [`Inputs::generate`].
fn setup(
    scenario: Scenario,
    inputs: &Inputs,
    args: &RunArgs,
) -> Result<(Fleet, [usize; 2]), String> {
    let server =
        SolveServer::start("127.0.0.1:0", ServeConfig::default()).map_err(|e| e.to_string())?;
    let addrs = [server.local_addr().to_string()];
    let clients = (0..2)
        .map(|_| ServeClient::new(&addrs, ClientOptions::default()).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let roles = scenario.roles();
    for (client, role) in clients.iter().zip(roles) {
        if role == Role::Warm {
            for a in &inputs.hot {
                client.warm(a, &inputs.config).map_err(|e| e.to_string())?;
            }
        }
    }
    let fleet = Fleet { server, clients };
    let mut next = [0; 2];
    let warmup = Until::Requests(roles.map(|role| args.warmup(role.warmup())));
    phase(&fleet, inputs, roles, &mut next, warmup, None);
    Ok((fleet, next))
}

/// Compares every kept reply bitwise with a direct `PreparedSystem::solve` of
/// the same system — the contract `docs/serving.md` states.
fn check_bitwise(inputs: &Inputs, roles: [Role; 2], logs: &mut [TenantLog]) -> Result<(), String> {
    let direct = |a: &CsrMatrix| {
        PreparedSystem::prepare(inputs.config.clone(), a).map_err(|e| e.to_string())
    };
    let hot = inputs
        .hot
        .iter()
        .map(|a| direct(a))
        .collect::<Result<Vec<_>, _>>()?;
    for (tenant, log) in logs.iter_mut().enumerate() {
        for kept in std::mem::take(&mut log.kept) {
            let i = kept.request;
            let solved = match roles[tenant] {
                Role::Warm => {
                    let key = inputs.keys[i % inputs.keys.len()];
                    hot[key].solve(&inputs.hot_rhs[tenant][key][i % RHS_PER_KEY])
                }
                Role::Cold => {
                    let (a, b) = inputs.cold_request(tenant, i);
                    direct(&a)?.solve(&b)
                }
            };
            match solved {
                Ok(out) if check::bitwise_equal(&out.x, &kept.x) => {}
                Ok(_) => log.tally.fail_counted(format!(
                    "reply {i} of tenant {tenant} differs from a direct solve"
                )),
                Err(e) => log.tally.fail_counted(format!("direct solve failed: {e}")),
            }
        }
    }
    Ok(())
}

/// Latencies of the tenants playing `role`, all in one sample.
fn latencies(logs: &[TenantLog], roles: [Role; 2], role: Role) -> Vec<f64> {
    logs.iter()
        .zip(roles)
        .filter(|(_, r)| *r == role)
        .flat_map(|(log, _)| log.ms.iter().copied())
        .collect()
}

/// Sets the end-to-end latency and throughput values of a timed phase;
/// returns the median latency in ms.
fn end_to_end(
    scenario: Scenario,
    logs: &[TenantLog],
    wall_seconds: f64,
    values: &mut Values,
) -> Result<f64, String> {
    let measured = latencies(logs, scenario.roles(), scenario.measured());
    if measured.is_empty() {
        let reasons: Vec<_> = logs.iter().flat_map(|l| l.tally.reasons.iter()).collect();
        return Err(format!("no request passed its check: {reasons:?}"));
    }
    let label = format!("solve_ms ({:?} tenant)", scenario.measured());
    let (p50, p90) = stats::report_latency(&label, &measured);
    values.insert("solve_ms_p50", p50);
    values.insert("solve_ms_p90", p90);
    let passed: usize = logs.iter().map(|l| l.ms.len()).sum();
    values.insert("solves_per_s", passed as f64 / wall_seconds);
    Ok(p50)
}

/// The request sequence submitted straight to `Engine::submit`: what a
/// request costs without the network, the codec and the coalescing window.
/// Returns the median submit-to-done time of the measured role, in ms.
fn engine_layers(
    scenario: Scenario,
    inputs: &Inputs,
    rec: &mut Recorder,
    values: &mut Values,
) -> Result<f64, String> {
    // Fixed counts, so that the engine's counters repeat exactly.
    let (requests, cold_every) = match scenario {
        Scenario::Warm => (200, usize::MAX),
        Scenario::Cold => (40, 1),
        Scenario::Mixed => (120, 4),
    };
    let engine = Engine::new(EngineConfig::default());
    let submit = |a: Arc<CsrMatrix>, b: Vec<f64>| -> Result<bool, String> {
        let request =
            SolveRequest::new(a, RhsPayload::Single(b)).with_config(inputs.config.clone());
        let handle = engine.submit(request).map_err(|e| e.to_string())?;
        handle
            .wait()
            .map(|out| out.converged())
            .map_err(|e| e.to_string())
    };
    if scenario != Scenario::Cold {
        for (a, rhs) in inputs.hot.iter().zip(&inputs.hot_rhs[0]) {
            submit(Arc::clone(a), rhs[0].clone())?;
        }
    }
    for i in 0..requests {
        let (name, a, b) = if i % cold_every == cold_every - 1 {
            // Tenant 2 does not exist: matrices no served request has used.
            let (a, b) = inputs.cold_request(2, i);
            ("engine.cold_request", Arc::new(a), b)
        } else {
            let key = inputs.keys[i % inputs.keys.len()];
            let b = inputs.hot_rhs[0][key][i % RHS_PER_KEY].clone();
            ("engine.warm_request", Arc::clone(&inputs.hot[key]), b)
        };
        let (converged, _) = rec.time(name, 1, || submit(a, b));
        if !converged? {
            return Err("an engine request did not converge".to_string());
        }
    }
    let report = engine.report();
    engine.shutdown();
    values.insert("engine.cache_hit_share", report.cache_hit_rate());
    values.insert("engine.factorizations", report.factorizations as f64);
    values.insert("engine.cache_evictions", report.cache_evictions as f64);
    values.insert(
        "engine.single_flight_waits",
        report.single_flight_waits as f64,
    );
    values.insert("engine.factorize_busy_s", report.factorize_seconds);
    values.insert("engine.solve_busy_s", report.solve_seconds);
    let measured = match scenario.measured() {
        Role::Warm => "engine.warm_request",
        Role::Cold => "engine.cold_request",
    };
    let p50_ms = layers::span_median_us(rec, measured) * 1e-3;
    values.insert("engine.submit_to_done_ms_p50", p50_ms);
    Ok(p50_ms)
}

/// All per-layer values of a serve workload.
fn serve_layers(
    scenario: Scenario,
    inputs: &Inputs,
    fleet: &Fleet,
    logs: &[TenantLog],
    p50_ms: f64,
    rec: &mut Recorder,
    values: &mut Values,
) -> Result<(), String> {
    let roles = scenario.roles();
    let replies: usize = logs.iter().map(|l| l.ms.len()).sum();
    let queue_us: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.queue_us.iter().copied())
        .collect();
    values.insert("serve.queue_us_p50", stats::median(&queue_us));
    let coalesced: u64 = logs.iter().map(|l| l.coalesced).sum();
    values.insert("serve.coalesced_share", coalesced as f64 / replies as f64);
    for (value, role, quantile) in [
        ("serve.warm_req_ms_p50", Role::Warm, 0.5),
        ("serve.cold_req_ms_p50", Role::Cold, 0.5),
        ("serve.cold_req_ms_p90", Role::Cold, 0.9),
    ] {
        let mut ms = latencies(logs, roles, role);
        if !ms.is_empty() {
            ms.sort_by(|a, b| a.total_cmp(b));
            values.insert(value, stats::quantile(&ms, quantile));
        }
    }
    for stats in fleet.clients[0].stats() {
        if let Message::ServerStats {
            batches, rejected, ..
        } = stats
        {
            values.insert("serve.batches", batches as f64);
            values.insert("serve.rejected", rejected as f64);
        }
    }

    // The matrix a request of the measured role carries, through the codec
    // and the kernels under the engine.
    let (a, b) = match scenario.measured() {
        Role::Warm => ((*inputs.hot[0]).clone(), inputs.hot_rhs[0][0][0].clone()),
        Role::Cold => inputs.cold_request(2, 0),
    };
    let blob = codec::encode_matrix(&a);
    let encode = layers::median_seconds(rec, "serve.matrix_encode", blob.len() as u64, || {
        std::hint::black_box(codec::encode_matrix(&a));
    });
    let decode = layers::median_seconds(rec, "serve.matrix_decode", blob.len() as u64, || {
        std::hint::black_box(codec::decode_matrix(&blob).is_ok());
    });
    let config_codec = layers::median_seconds(rec, "serve.config_codec", 1, || {
        let blob = codec::encode_config(&inputs.config);
        std::hint::black_box(codec::decode_config(&blob).is_ok());
    });
    values.insert("serve.matrix_encode_ms", encode * 1e3);
    values.insert("serve.matrix_decode_ms", decode * 1e3);
    values.insert("serve.config_codec_us", config_codec * 1e6);
    layers::kernel_layers(&a, &b, &inputs.config, rec, values)?;

    let engine_ms = engine_layers(scenario, inputs, rec, values)?;
    values.insert("serve.overhead_ms", p50_ms - engine_ms);
    values.insert("harness.layer_sum_share", engine_ms / p50_ms);
    println!(
        "budget: request p50 {:.3} ms = engine submit-to-done {engine_ms:.3} ms + \
         serve.overhead_ms {:.3} ms (window wait, codec, loopback)",
        p50_ms,
        p50_ms - engine_ms
    );
    Ok(())
}

/// Runs one serve workload: set-up, the timed phase and, when tracing, the
/// per-layer measurements.
pub fn run(name: &str, scenario: Scenario, args: &RunArgs) -> Result<RunResult, String> {
    let mut values = Values::new();
    let roles = scenario.roles();
    let mut setups = Vec::new();
    let mut live = None;
    for _ in 0..args.setup_repetitions() {
        if let Some((_, fleet, _)) = live.take() {
            Fleet::shutdown(fleet);
        }
        let t0 = Instant::now();
        let inputs = Inputs::generate(args.seed);
        let (fleet, next) = setup(scenario, &inputs, args)?;
        setups.push(t0.elapsed().as_secs_f64());
        live = Some((inputs, fleet, next));
    }
    let (inputs, fleet, mut next) = live.expect("set-up ran at least once");
    values.insert("setup_s", stats::median(&setups));

    // One clock for the tenants' recorders and the layer spans.
    let epoch = Instant::now();
    let mut rec = Recorder::new(epoch);
    let deadline = Until::Deadline(epoch + std::time::Duration::from_secs_f64(args.seconds));
    let spans = args.trace.then_some(epoch);
    let (mut logs, wall_seconds) = phase(&fleet, &inputs, roles, &mut next, deadline, spans);
    for log in &mut logs {
        if let Some(spans) = log.spans.take() {
            rec.absorb(spans);
        }
    }
    check_bitwise(&inputs, roles, &mut logs)?;
    let p50_ms = end_to_end(scenario, &logs, wall_seconds, &mut values)?;
    if args.trace {
        let measured = logs
            .iter()
            .zip(roles)
            .filter(|(_, role)| *role == scenario.measured());
        let (ms, spanned): (Vec<f64>, Vec<bool>) = measured
            .flat_map(|(log, _)| log.ms.iter().copied().zip(log.spanned.iter().copied()))
            .unzip();
        values.insert(
            "harness.trace_overhead_share",
            stats::trace_overhead_share(&ms, &spanned),
        );
        serve_layers(
            scenario,
            &inputs,
            &fleet,
            &logs,
            p50_ms,
            &mut rec,
            &mut values,
        )?;
        let path = host::out_dir().join(format!("trace-{name}-seed{}.jsonl", args.seed));
        trace::report(&path, &rec.spans)?;
    }
    fleet.shutdown();
    let peak_rss_mb = logs.iter().map(|l| l.peak_rss_mb).fold(0.0, f64::max);
    values.insert("peak_rss_mb", peak_rss_mb);

    let mut tally = Tally::default();
    for log in logs {
        tally.merge(log.tally);
    }
    Ok(RunResult {
        tally,
        values,
        timed_seconds: wall_seconds,
    })
}
