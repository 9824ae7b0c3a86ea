//! A live `walshcheck serve` child and a closed-loop client against it.

use std::collections::HashMap;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use walshcheck_circuit::ilang::{parse_ilang, write_ilang};
use walshcheck_core::hash::sha256_hex;
use walshcheck_core::json::{self, Json};
use walshcheck_core::{netlist_sha256, JobSpec};
use walshcheck_daemon::client::{Client, ClientResponse};

use crate::check::CheckSpec;
use crate::gen::{Item, Job, JobStream};
use crate::hostspeed::{self, CpuShares, Reference, Sample};
use crate::known::{Inputs, CATALOGUE};
use crate::sys::{self, Exit};
use crate::trace::Tracer;

/// Runner threads of the daemon under test.
pub const RUNNERS: usize = 2;
/// Concurrent client connections (closed loop: one request in flight each).
pub const CLIENTS: usize = 2;

/// A running daemon child.
#[derive(Debug)]
pub struct Daemon {
    /// The child; `None` once stopped.
    child: Option<Child>,
    /// Its store directory.
    pub store: PathBuf,
    /// `host:port` it listens on.
    pub addr: String,
    /// Spawn → first `200` from `/v1/health`, in seconds.
    pub ready_s: f64,
}

impl Daemon {
    /// Spawns `walshcheck serve` on a fresh `store` and waits until
    /// `/v1/health` answers `200`.
    ///
    /// # Errors
    ///
    /// Fails when the store cannot be prepared, the child cannot be
    /// spawned, or it is not healthy within 30 seconds.
    pub fn start(walshcheck: &Path, store: &Path) -> std::io::Result<Daemon> {
        if store.exists() {
            std::fs::remove_dir_all(store)?;
        }
        std::fs::create_dir_all(store)?;
        let log = store.with_extension("log");
        let mut command = Command::new(walshcheck);
        command
            .args(["serve", "--runners", &RUNNERS.to_string(), "--store"])
            .arg(store)
            .stdin(Stdio::null())
            .stdout(File::create(&log)?)
            .stderr(File::create(log.with_extension("err"))?);
        let start = Instant::now();
        let mut child = command.spawn()?;
        let deadline = start + Duration::from_secs(30);
        let addr_file = store.join("daemon.addr");
        while Instant::now() < deadline {
            let addr = std::fs::read_to_string(&addr_file).unwrap_or_default();
            let addr = addr.trim();
            if !addr.is_empty() {
                let healthy = Client::new(addr)
                    .timeout(Duration::from_secs(5))
                    .get("/v1/health")
                    .is_ok_and(|r| r.status == 200);
                if healthy {
                    return Ok(Daemon {
                        child: Some(child),
                        store: store.to_owned(),
                        addr: addr.to_owned(),
                        ready_s: start.elapsed().as_secs_f64(),
                    });
                }
            }
            std::thread::sleep(Duration::from_micros(500));
        }
        let _ = sys::stop(&mut child, Duration::from_secs(5));
        Err(std::io::Error::other("daemon not healthy within 30 s"))
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.as_ref().map_or(0, Child::id)
    }

    /// SIGTERMs the daemon (it drains and exits) and reaps it.
    ///
    /// # Errors
    ///
    /// Fails when signalling or reaping does.
    pub fn stop(mut self) -> std::io::Result<Exit> {
        let mut child = self.child.take().expect("a running daemon has its child");
        sys::stop(&mut child, Duration::from_secs(20))
    }
}

impl Drop for Daemon {
    /// A daemon not stopped explicitly (an error path) is killed and
    /// reaped, so no child outlives the benchmark.
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = sys::wait_with_usage(&mut child);
        }
    }
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => dir_bytes(&e.path()),
            Ok(t) if t.is_file() => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// One fresh job as the client generated it.
#[derive(Debug, Clone)]
pub struct FreshJob {
    /// What it checks.
    pub item: Item,
    /// The submitted ILANG text.
    pub text: String,
    /// The submitted spec document.
    pub spec_json: String,
    /// `netlist_sha256` of the text as the library parses it.
    pub netlist_sha256: String,
}

impl FreshJob {
    /// Generates the job for `item` on a netlist renamed by `nonce`.
    ///
    /// # Errors
    ///
    /// Fails when the generated text does not parse back.
    pub fn new(
        item: Item,
        nonce: u64,
        inputs: &Inputs,
        group: u64,
        tracer: &mut Tracer,
    ) -> Result<FreshJob, String> {
        let case = &CATALOGUE[item.case];
        let mut netlist = inputs.netlist(case.input).clone();
        netlist.name = format!("{}_j{nonce}", netlist.name);
        let text = write_ilang(&netlist);
        let parsed = tracer
            .time("client.parse", group, || parse_ilang(&text))
            .map_err(|e| format!("generated job does not parse: {e}"))?;
        let netlist_sha256 = tracer.time("client.sha256", group, || netlist_sha256(&parsed));
        let spec = job_spec(&item.spec());
        Ok(FreshJob {
            item,
            text,
            spec_json: spec.to_json().to_canonical(),
            netlist_sha256,
        })
    }
}

fn job_spec(spec: &CheckSpec) -> JobSpec {
    let mut job = JobSpec::new(spec.property);
    job.options.engine = spec.engine;
    job.options.mode = spec.mode;
    job.options.prefilter = spec.prefilter;
    job.options.sites.probe_model = if spec.glitch {
        walshcheck_circuit::glitch::ProbeModel::Glitch
    } else {
        walshcheck_circuit::glitch::ProbeModel::Standard
    };
    job.threads = spec.threads;
    job
}

/// One finished client exchange (submit → report fetched).
#[derive(Debug, Clone, Default)]
pub struct JobRecord {
    /// Stream position.
    pub position: usize,
    /// Whether this was a resubmission.
    pub resubmit: bool,
    /// Submit → report fetched, seconds.
    pub latency_s: f64,
    /// Submit → first sign of running (fresh jobs that waited), seconds.
    pub queue_wait_s: Option<f64>,
    /// Running → terminal state observed, seconds.
    pub run_s: Option<f64>,
    /// Durations of each request kind.
    pub submit_s: f64,
    /// Status request duration.
    pub status_s: f64,
    /// Report request duration.
    pub fetch_s: f64,
    /// The daemon answered the submit with `"cached":true`.
    pub cached: bool,
    /// Automatic retries the daemon spent on the job.
    pub retries: u64,
    /// SHA-256 of the fetched report bytes.
    pub report_sha256: String,
    /// Responses with a 5xx status, and of those, 503s.
    pub http_5xx: u64,
    /// Responses with status 503.
    pub http_503: u64,
    /// Why the job counts as failed, if it does.
    pub failure: Option<String>,
    /// The slice between two reference samples the job ran in (jobs never
    /// straddle a pause); see [`LoopResult::scales`].
    pub slice: usize,
}

/// State the client threads share.
#[derive(Debug)]
struct Shared {
    stream: JobStream,
    /// Per position: the fresh position whose spec it carries.
    root: Vec<usize>,
    /// Generated fresh jobs by position.
    fresh: HashMap<usize, FreshJob>,
    /// Report hashes of completed fresh positions.
    done: HashMap<usize, String>,
    /// Completed fresh positions in completion order.
    done_order: Vec<usize>,
}

/// Everything one closed-loop session produced.
#[derive(Debug, Default)]
pub struct LoopResult {
    /// Every exchange, in completion order.
    pub records: Vec<JobRecord>,
    /// The fresh jobs that completed, with the daemon's report hash.
    pub fresh: Vec<(FreshJob, String)>,
    /// Wall seconds from the first submit to the last report, less the
    /// pauses for the reference task.
    pub wall_s: f64,
    /// `wall_s` at the reference speed, slice by slice.
    pub scaled_wall_s: f64,
    /// The reference samples, one more than the slices.
    pub reference_s: Vec<Sample>,
    /// Client-side spans of every thread.
    pub tracer: Option<Tracer>,
}

impl LoopResult {
    /// The factor that turns each slice's wall seconds into seconds at
    /// the reference speed.
    pub fn scales(&self) -> Vec<f64> {
        self.reference_s
            .windows(2)
            .map(|w| hostspeed::scale(w[0].wall_s, w[1].wall_s))
            .collect()
    }
}

/// Runs `CLIENTS` closed-loop clients against `daemon` until `seconds`
/// have passed (or `max_jobs` positions were handed out), then lets in-flight
/// jobs finish.
pub fn closed_loop(
    daemon: &Daemon,
    stream: JobStream,
    inputs: &Inputs,
    seconds: f64,
    max_jobs: usize,
    traced: bool,
    epoch: Instant,
) -> LoopResult {
    let shared = Mutex::new(Shared {
        stream,
        root: Vec::new(),
        fresh: HashMap::new(),
        done: HashMap::new(),
        done_order: Vec::new(),
    });
    let client = Client::new(daemon.addr.clone()).timeout(Duration::from_secs(120));
    let gate = Gate::new(daemon.pid());
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let outputs: Vec<(Vec<JobRecord>, Tracer)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|_| {
                let (shared, client, gate) = (&shared, &client, &gate);
                scope.spawn(move || {
                    let mut tracer = Tracer::new(traced, epoch);
                    let mut records = Vec::new();
                    while Instant::now() < deadline {
                        gate.between_jobs();
                        let Some(claim) = claim(shared, inputs, max_jobs, &mut tracer) else {
                            break;
                        };
                        let mut record = exchange(client, shared, &claim, &mut tracer);
                        record.slice = gate.slice();
                        records.push(record);
                    }
                    gate.leave();
                    (records, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let slices = gate.finish();
    let shared = shared.into_inner().unwrap_or_else(PoisonError::into_inner);
    let mut result = LoopResult {
        wall_s: slices.wall_s,
        scaled_wall_s: slices.scaled_wall_s,
        reference_s: slices.reference_s,
        ..LoopResult::default()
    };
    let mut tracer = Tracer::new(traced, epoch);
    for (records, t) in outputs {
        result.records.extend(records);
        tracer.absorb(t);
    }
    result.tracer = traced.then_some(tracer);
    let mut fresh = shared.fresh;
    for position in shared.done_order {
        if let Some(job) = fresh.remove(&position) {
            result.fresh.push((job, shared.done[&position].clone()));
        }
    }
    result
}

/// Seconds the clients run between two pauses for the reference task.
const SLICE_S: f64 = 0.5;

/// Pauses the clients every [`SLICE_S`], between jobs, so that the
/// reference task of [`crate::hostspeed`] runs while the daemon is idle;
/// each slice's wall seconds are scaled by the samples right before and
/// right after it.
struct Gate {
    state: Mutex<GateState>,
    resumed: Condvar,
}

struct GateState {
    reference: Reference,
    /// Clients still in the loop, and those waiting at the gate.
    active: usize,
    waiting: usize,
    /// Bumped at every pause, so waiters know theirs is over.
    pauses: u64,
    slice: Instant,
    /// The CPUs the daemon's threads used.
    shares: CpuShares,
    totals: Slices,
}

/// The slices a closed loop ran between pauses.
struct Slices {
    reference_s: Vec<Sample>,
    wall_s: f64,
    scaled_wall_s: f64,
}

impl GateState {
    fn end_slice(&mut self) {
        let ran = self.slice.elapsed().as_secs_f64();
        let sample = self.reference.sample_on(self.shares.update());
        let t = &mut self.totals;
        let before = *t.reference_s.last().expect("sampled at start");
        t.reference_s.push(sample);
        t.wall_s += ran;
        t.scaled_wall_s += ran * hostspeed::scale(before.wall_s, sample.wall_s);
        self.waiting = 0;
        self.pauses += 1;
        self.slice = Instant::now();
    }
}

impl Gate {
    fn new(daemon_pid: u32) -> Gate {
        let mut reference = Reference::new();
        let first = reference.sample();
        Gate {
            state: Mutex::new(GateState {
                reference,
                active: CLIENTS,
                waiting: 0,
                pauses: 0,
                shares: CpuShares::new(daemon_pid),
                slice: Instant::now(),
                totals: Slices {
                    reference_s: vec![first],
                    wall_s: 0.0,
                    scaled_wall_s: 0.0,
                },
            }),
            resumed: Condvar::new(),
        }
    }

    /// The slice running now.
    fn slice(&self) -> usize {
        self.lock().pauses as usize
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, GateState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Once the slice has run [`SLICE_S`], waits until every client still
    /// in the loop is between jobs; the last to arrive runs the reference
    /// task and lets them all go on.
    fn between_jobs(&self) {
        let mut s = self.lock();
        if s.slice.elapsed().as_secs_f64() < SLICE_S {
            return;
        }
        s.waiting += 1;
        if s.waiting == s.active {
            s.end_slice();
            self.resumed.notify_all();
            return;
        }
        let pause = s.pauses;
        while s.pauses == pause {
            s = self.resumed.wait(s).unwrap_or_else(PoisonError::into_inner);
        }
    }

    /// A client leaves the loop; if the others all wait at the gate, the
    /// pause happens now.
    fn leave(&self) {
        let mut s = self.lock();
        s.active -= 1;
        if s.waiting > 0 && s.waiting == s.active {
            s.end_slice();
            self.resumed.notify_all();
        }
    }

    /// Ends the last slice once every client has left.
    fn finish(self) -> Slices {
        let mut s = self
            .state
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner);
        s.end_slice();
        s.totals
    }
}

/// A claimed stream position, ready to submit.
#[derive(Debug)]
struct Claim {
    position: usize,
    resubmit: bool,
    /// The job to submit, or why it could not be generated.
    job: Result<FreshJob, String>,
    /// For a resubmission: the report hash of the original.
    original_report: Option<String>,
}

fn claim(
    shared: &Mutex<Shared>,
    inputs: &Inputs,
    max_jobs: usize,
    tracer: &mut Tracer,
) -> Option<Claim> {
    let mut s = shared.lock().unwrap_or_else(PoisonError::into_inner);
    let position = s.root.len();
    if position >= max_jobs {
        return None;
    }
    let root = match s.stream.next().expect("the job stream is endless") {
        Job::Fresh { item, nonce } => {
            let job = FreshJob::new(item, nonce, inputs, position as u64, tracer);
            if let Ok(job) = &job {
                s.fresh.insert(position, job.clone());
            }
            s.root.push(position);
            return Some(Claim {
                position,
                resubmit: false,
                job,
                original_report: None,
            });
        }
        // Resubmit a finished job: the seeded one if it is done, else the
        // most recently finished one.
        Job::Resubmit { of } => {
            let wanted = s.root[of];
            if s.done.contains_key(&wanted) {
                wanted
            } else {
                s.done_order.last().copied().unwrap_or(wanted)
            }
        }
    };
    s.root.push(root);
    Some(Claim {
        position,
        resubmit: true,
        job: s
            .fresh
            .get(&root)
            .cloned()
            .ok_or_else(|| "no generated job to resubmit".to_owned()),
        original_report: s.done.get(&root).cloned(),
    })
}

fn exchange(
    client: &Client,
    shared: &Mutex<Shared>,
    claim: &Claim,
    tracer: &mut Tracer,
) -> JobRecord {
    let mut record = JobRecord {
        position: claim.position,
        resubmit: claim.resubmit,
        ..JobRecord::default()
    };
    let job = match &claim.job {
        Ok(job) => job,
        Err(e) => {
            record.failure = Some(e.clone());
            return record;
        }
    };
    let group = claim.position as u64;
    let root_span = tracer.begin("daemon.job", group);
    let result = talk(client, job, claim, &mut record, group, tracer);
    tracer.end(root_span);
    match result {
        Ok(report_hash) => {
            if !claim.resubmit {
                let mut s = shared.lock().unwrap_or_else(PoisonError::into_inner);
                s.done.insert(claim.position, report_hash);
                s.done_order.push(claim.position);
            }
        }
        Err(e) => record.failure = Some(e),
    }
    record
}

fn counted(
    record: &mut JobRecord,
    response: std::io::Result<ClientResponse>,
) -> Result<ClientResponse, String> {
    let response = response.map_err(|e| format!("request failed: {e}"))?;
    if response.status >= 500 {
        record.http_5xx += 1;
        if response.status == 503 {
            record.http_503 += 1;
        }
    }
    if response.status >= 400 {
        return Err(format!("HTTP {}: {}", response.status, response.text()));
    }
    Ok(response)
}

fn parse_body(response: &ClientResponse) -> Result<Json, String> {
    json::parse(&response.text()).map_err(|e| format!("response body: {e}"))
}

/// One job's exchange: submit, wait for a terminal state, read the status
/// and fetch the report. Returns the report hash.
fn talk(
    client: &Client,
    job: &FreshJob,
    claim: &Claim,
    record: &mut JobRecord,
    group: u64,
    tracer: &mut Tracer,
) -> Result<String, String> {
    let start = Instant::now();
    let response = tracer.time("daemon.submit", group, || {
        client.submit(&job.spec_json, &job.text)
    });
    record.submit_s = start.elapsed().as_secs_f64();
    let ack = parse_body(&counted(record, response)?)?;
    let id = ack
        .get("id")
        .and_then(Json::as_str)
        .ok_or("submit answer lacks an id")?
        .to_owned();
    record.cached = ack.get("cached").and_then(Json::as_bool).unwrap_or(false);
    let mut state = ack
        .get("state")
        .and_then(Json::as_str)
        .unwrap_or("")
        .to_owned();
    let mut since = 0u64;
    let mut running_at: Option<Instant> = None;
    while matches!(state.as_str(), "queued" | "running") {
        let response = tracer.time("daemon.events", group, || {
            client.events(&id, since as usize, 25_000)
        });
        let body = parse_body(&counted(record, response)?)?;
        state = body
            .get("state")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_owned();
        since = body.get("next").and_then(Json::as_u64).unwrap_or(since);
        if running_at.is_none() && (state != "queued" || since > 0) {
            let now = Instant::now();
            running_at = Some(now);
            record.queue_wait_s = Some((now - start).as_secs_f64());
        }
    }
    if let Some(at) = running_at {
        record.run_s = Some(at.elapsed().as_secs_f64());
    }
    let t = Instant::now();
    let response = tracer.time("daemon.status", group, || {
        client.get(&format!("/v1/jobs/{id}"))
    });
    record.status_s = t.elapsed().as_secs_f64();
    let status = parse_body(&counted(record, response)?)?;
    let state = status.get("state").and_then(Json::as_str).unwrap_or("");
    if state != "done" {
        return Err(format!("job {id} ended in state {state:?}"));
    }
    record.retries = status.get("retries").and_then(Json::as_u64).unwrap_or(0);
    let report_hash = status
        .get("report_hash")
        .and_then(Json::as_str)
        .ok_or("done job lacks a report_hash")?
        .to_owned();
    let t = Instant::now();
    let response = tracer.time("daemon.fetch", group, || {
        client.get(&format!("/v1/jobs/{id}/report"))
    });
    record.fetch_s = t.elapsed().as_secs_f64();
    record.latency_s = start.elapsed().as_secs_f64();
    let report = counted(record, response)?;
    record.report_sha256 = sha256_hex(&report.body);
    check_report(job, claim, &report, &report_hash, record)?;
    Ok(report_hash)
}

/// Checks a fetched artifact against the known answer and the hashes.
fn check_report(
    job: &FreshJob,
    claim: &Claim,
    report: &ClientResponse,
    report_hash: &str,
    record: &JobRecord,
) -> Result<(), String> {
    let case = &CATALOGUE[job.item.case];
    if record.report_sha256 != report_hash {
        return Err("report bytes do not hash to the status report_hash".into());
    }
    if let Some(original) = &claim.original_report {
        if original != report_hash {
            return Err("resubmission served a different report than the original".into());
        }
    }
    let doc = parse_body(report)?;
    let result = doc.get("result").ok_or("report lacks a result")?;
    let outcome = result.get("outcome").and_then(Json::as_str).unwrap_or("");
    let witness = !matches!(result.get("witness"), None | Some(Json::Null));
    let netlist = doc
        .get("job")
        .and_then(|j| j.get("netlist_sha256"))
        .and_then(Json::as_str)
        .unwrap_or("");
    if netlist != job.netlist_sha256 {
        return Err("report netlist_sha256 differs from the submitted netlist's".into());
    }
    case.expect
        .judge(outcome, witness)
        .map_err(|e| format!("{}: {e}", case.label()))
}
