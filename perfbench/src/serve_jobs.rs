//! `serve-jobs`: the real `campaign serve` binary as a child process
//! (`--workers 1 --shards 1 --parallelism 1 --isolation thread`, fresh
//! store), driven by one closed-loop client: each job is submitted over a
//! new connection and watched to `done` on it — the `campaign submit
//! --watch` pattern — before the next is sent.
//!
//! Two of every three jobs resubmit an earlier campaign and are served
//! from the daemon's memo cache (reads); the rest are fresh one-scenario
//! campaigns that train and append to the store (writes).
//!
//! Why: compute per job is tiny, so latency belongs to `serve` and the
//! store. A `serve` fix shows here and should leave the other workloads
//! unchanged.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use reram::mix_seed;
use scenarios::ResultStore;
use serde_json::Value;
use serve::protocol::{write_line, Request};

use crate::campaign_mc::FAULT_MIXES;
use crate::host;
use crate::measure::{run_rounds, work_dir, Check, Measured, SETUPS};
use crate::pace::Steps;
use crate::probes::Shape;
use crate::stats::median;
use crate::trace::{Tracer, ROOT};
use crate::PerLayer;

/// Jobs per round: one fresh campaign, then two repeats, four times.
const ROUND_JOBS: usize = 12;
/// Fresh campaigns `quality.best_objective` averages: those of the first
/// eight rounds, which every run completes (it runs at least 100 jobs), so
/// the figure does not depend on how many rounds fit in the run.
const QUALITY_CAMPAIGNS: usize = 8 * ROUND_JOBS / 3;
/// Budgets of a fresh job's scenario: trials, MC samples, epochs, final.
const BUDGETS: (usize, usize, usize, usize) = (2, 2, 1, 1);
const MOONS_SAMPLES: usize = 120;
/// Socket timeout: a daemon silent this long has failed the run.
const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Builds the `campaign` binary from the checkout's own manifest and
/// returns its path. Run by every workload before it measures, so the
/// first run in a checkout builds everything.
pub fn build_campaign_binary() -> Result<PathBuf, String> {
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let out = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            "Cargo.toml",
            "-p",
            "serve",
            "--bin",
            "campaign",
            "--message-format=json",
        ])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "building the campaign binary failed: {}",
            out.status
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .filter_map(|line| serde_json::from_str(line).ok())
        .filter(|v: &Value| {
            v.get("target")
                .and_then(|t| t.get("name"))
                .and_then(Value::as_str)
                == Some("campaign")
        })
        .find_map(|v| {
            v.get("executable")
                .and_then(Value::as_str)
                .map(PathBuf::from)
        })
        .ok_or_else(|| "cargo reported no campaign executable".into())
}

/// The one-scenario campaign document of fresh job `k`.
fn fresh_campaign(seed: u64, k: usize) -> Value {
    let (faults, space) = FAULT_MIXES[k % FAULT_MIXES.len()];
    let (trials, mc, epochs, final_epochs) = BUDGETS;
    let faults: Vec<String> = faults.iter().map(|f| format!("\"{f}\"")).collect();
    let text = format!(
        r#"{{"name": "serve-jobs-{k}", "scenarios": [{{"name": "job{k}", "faults": [{}], "task": {{"kind": "moons", "samples": {MOONS_SAMPLES}, "noise": 0.1}}, "space": "{space}", "trials": {trials}, "mc_samples": {mc}, "epochs_per_trial": {epochs}, "final_epochs": {final_epochs}, "seed": {}}}]}}"#,
        faults.join(", "),
        mix_seed(seed, 0x5e7e_0000 + k as u64) % 1_000_000,
    );
    serde_json::from_str(&text).expect("generated campaign is JSON")
}

/// Monte-Carlo samples fresh job `k` evaluates.
fn fresh_samples(k: usize) -> u64 {
    let (trials, mc, _, _) = BUDGETS;
    (trials * FAULT_MIXES[k % FAULT_MIXES.len()].0.len() * mc) as u64
}

/// The daemon child; killed and reaped if still running when dropped.
struct Daemon {
    child: Child,
    /// Drains the daemon's stdout after its listening line, so its later
    /// prints never block or fail; ends at EOF.
    drain: Option<std::thread::JoinHandle<()>>,
    addr: String,
    store: PathBuf,
}

impl Daemon {
    /// Spawns `campaign serve` and waits for its listening line.
    fn spawn(exe: &Path, dir: &Path) -> Result<(Daemon, f64), String> {
        let store = dir.join("daemon-store.jsonl");
        let _ = std::fs::remove_file(&store);
        let t = Instant::now();
        let mut child = Command::new(exe)
            .args(["serve", "--listen", "127.0.0.1:0", "--store"])
            .arg(&store)
            .args(["--workers", "1", "--shards", "1", "--parallelism", "1"])
            .args(["--queue", "64", "--isolation", "thread"])
            .env_remove("BENCH_QUICK")
            .env_remove("SERVE_FAULT")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let secs = t.elapsed().as_secs_f64();
        let addr = line
            .split("listening on ")
            .nth(1)
            .and_then(|rest| rest.split_whitespace().next())
            .map(str::to_string);
        let drain = std::thread::spawn(move || {
            let _ = std::io::copy(&mut stdout, &mut std::io::sink());
        });
        let mut daemon = Daemon {
            child,
            drain: Some(drain),
            addr: String::new(),
            store,
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                daemon.addr = addr;
                Ok((daemon, secs))
            }
            _ => Err(format!("daemon did not report its address (read {line:?})")),
        }
    }

    fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Asks the daemon to shut down and waits (20 s at most) for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let answered = Conn::open(&self.addr)
            .and_then(|mut c| c.request(&Request::Shutdown.to_value()))
            .is_ok();
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if answered && status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(10))
                }
                _ => return Err("daemon did not stop after shutdown".into()),
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.drain.take() {
            let _ = drain.join();
        }
    }
}

/// One client connection speaking the line protocol.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(IO_TIMEOUT))
            .and_then(|()| stream.set_write_timeout(Some(IO_TIMEOUT)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    fn read(&mut self) -> Result<Value, String> {
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => serde_json::from_str(line.trim()).map_err(|e| format!("bad line: {e}")),
            Err(e) => Err(format!("read: {e}")),
        }
    }

    fn request(&mut self, request: &Value) -> Result<Value, String> {
        write_line(&mut self.writer, request).map_err(|e| format!("write: {e}"))?;
        self.writer.flush().map_err(|e| format!("flush: {e}"))?;
        self.read()
    }
}

/// Client-side timestamps and outcome of one job.
struct Job {
    t0: Instant,
    connected: Instant,
    acked: Instant,
    running: Instant,
    done: Instant,
    /// `None` when the daemon refused the submission.
    outcome: Option<JobOutcome>,
}

struct JobOutcome {
    state: String,
    completed: u64,
    scenarios: u64,
    served: u64,
    best_objective: Option<f64>,
}

fn num(v: &Value, key: &str) -> u64 {
    v.get(key).and_then(Value::as_u64).unwrap_or(0)
}

/// Submit `campaign` on a new connection and watch it to `done`.
fn run_job(addr: &str, campaign: &Value) -> Result<Job, String> {
    let t0 = Instant::now();
    let mut conn = Conn::open(addr)?;
    let connected = Instant::now();
    let ack = conn.request(
        &Request::Submit {
            campaign: campaign.clone(),
        }
        .to_value(),
    )?;
    let acked = Instant::now();
    if ack.get("ok").and_then(Value::as_bool) != Some(true) {
        return Ok(Job {
            t0,
            connected,
            acked,
            running: acked,
            done: acked,
            outcome: None,
        });
    }
    let id = ack
        .get("job")
        .and_then(Value::as_str)
        .ok_or("submit ack without a job id")?
        .to_string();
    let scenarios = num(&ack, "scenarios");
    let watch = conn.request(&Request::Watch { job: id }.to_value())?;
    if watch.get("ok").and_then(Value::as_bool) != Some(true) {
        return Err(format!("watch refused: {}", serde_json::to_string(&watch)));
    }
    let mut running = None;
    let mut best_objective = None;
    loop {
        let event = conn.read()?;
        match event.get("event").and_then(Value::as_str) {
            Some("state") if event.get("state").and_then(Value::as_str) == Some("running") => {
                running.get_or_insert_with(Instant::now);
            }
            Some("scenario") if event.get("ok").and_then(Value::as_bool) == Some(true) => {
                best_objective = event.get("best_objective").and_then(Value::as_f64);
            }
            Some("done") => {
                let done = Instant::now();
                return Ok(Job {
                    t0,
                    connected,
                    acked,
                    running: running.unwrap_or(acked),
                    done,
                    outcome: Some(JobOutcome {
                        state: event
                            .get("state")
                            .and_then(Value::as_str)
                            .unwrap_or("")
                            .to_string(),
                        completed: num(&event, "completed"),
                        scenarios,
                        served: num(&event, "cache_served") + num(&event, "store_served"),
                        best_objective,
                    }),
                });
            }
            _ => {}
        }
    }
}

/// Sums of the daemon's telemetry series whose names start with one of
/// `prefixes`, read over the `metrics` verb.
fn daemon_telemetry(addr: &str, names: &[&str]) -> Result<Vec<f64>, String> {
    let response = Conn::open(addr)?.request(&Request::Metrics.to_value())?;
    let text = response
        .get("metrics")
        .and_then(Value::as_str)
        .ok_or("metrics response without text")?;
    Ok(names
        .iter()
        .map(|name| {
            text.lines()
                .filter_map(|l| l.split_once(' '))
                .filter(|(series, _)| series == name)
                .filter_map(|(_, v)| v.trim().parse::<f64>().ok())
                .sum()
        })
        .collect())
}

const TELEMETRY: [&str; 5] = [
    "store_append_seconds_sum",
    "engine_suggest_seconds_sum",
    "engine_train_seconds_sum",
    "engine_eval_seconds_sum",
    "engine_finetune_seconds_sum",
];

/// The client loop's state across rounds.
struct Client {
    seed: u64,
    rng: ChaCha8Rng,
    fresh: Vec<(Value, Option<f64>)>,
}

/// Tallies of a stretch of rounds.
#[derive(Default)]
struct Tally {
    jobs: Vec<Job>,
    attempted: u64,
    failed: u64,
    refusals: u64,
    served: u64,
    mismatches: Vec<String>,
    mc_samples: u64,
    fresh_objectives: Vec<f64>,
}

impl Client {
    /// One round of jobs, each a step: its latency, and the client's plus
    /// the daemon's CPU over it (every daemon thread, including the shard
    /// thread that ran the job and exited before `done`).
    fn round(
        &mut self,
        daemon: &Daemon,
        tally: &mut Tally,
        tracer: &mut Tracer,
        steps: &mut Steps,
        r: usize,
    ) -> Result<(), String> {
        let daemon_cpu =
            || host::process_cpu_seconds(daemon.pid()).ok_or("the daemon exited during the run");
        steps.start_round();
        tracer.span(ROOT, r as u64, |t| {
            for j in 0..ROUND_JOBS {
                let job_id = (r * ROUND_JOBS + j) as u64;
                let fresh = j % 3 == 0;
                let k = if fresh {
                    let k = self.fresh.len();
                    self.fresh.push((fresh_campaign(self.seed, k), None));
                    k
                } else {
                    self.rng.gen_range(0..self.fresh.len())
                };
                let (cpu0, daemon0) = (host::own_cpu_seconds(), daemon_cpu()?);
                let job = run_job(&daemon.addr, &self.fresh[k].0)?;
                let cpu = host::own_cpu_seconds() - cpu0 + daemon_cpu()? - daemon0;
                steps.record(j, true, (job.done - job.t0).as_secs_f64(), cpu);
                t.record("serve.connect", job_id, job.t0, job.connected);
                t.record("serve.submit", job_id, job.connected, job.acked);
                t.record("serve.queue", job_id, job.acked, job.running);
                t.record("serve.run", job_id, job.running, job.done);
                tally.attempted += 1;
                let Some(out) = &job.outcome else {
                    tally.refusals += 1;
                    tally.failed += 1;
                    continue;
                };
                let complete =
                    out.state == "done" && out.completed == out.scenarios && out.scenarios == 1;
                let mut ok = complete;
                if !complete {
                    tally.mismatches.push(format!(
                        "job {job_id}: {} {}/{}",
                        out.state, out.completed, out.scenarios
                    ));
                }
                if fresh {
                    self.fresh[k].1 = out.best_objective;
                    if let (true, Some(b)) = (k < QUALITY_CAMPAIGNS, out.best_objective) {
                        tally.fresh_objectives.push(b);
                    }
                    if out.served == 0 {
                        tally.mc_samples += fresh_samples(k);
                    } else {
                        ok = false;
                        tally
                            .mismatches
                            .push(format!("job {job_id}: fresh campaign {k} was served"));
                    }
                } else {
                    tally.served += out.served;
                    let same = match (self.fresh[k].1, out.best_objective) {
                        (Some(a), Some(b)) => a.to_bits() == b.to_bits(),
                        _ => false,
                    };
                    if out.served != 1 || !same {
                        ok = false;
                        tally.mismatches.push(format!(
                            "job {job_id}: repeat of {k} served {} with objective {:?} vs {:?}",
                            out.served, out.best_objective, self.fresh[k].1
                        ));
                    }
                }
                if !ok {
                    tally.failed += 1;
                }
                tally.jobs.push(job);
            }
            Ok(())
        })
    }
}

/// Every stored record of one `(digest, seed)` must carry the same report:
/// a cache-served repeat's report equals its fresh run's.
fn store_check(store: &Path) -> Check {
    let records = match ResultStore::open(store).load() {
        Ok(records) => records,
        Err(e) => return Check::new("serve-jobs: store reports", false, e.to_string()),
    };
    let mut groups: std::collections::BTreeMap<(String, u64), Vec<bayesft::RunReport>> =
        std::collections::BTreeMap::new();
    let mut unreadable = 0;
    for record in &records {
        match record
            .raw
            .get("report")
            .ok_or_else(String::new)
            .and_then(bayesft::RunReport::from_json)
        {
            Ok(report) => groups
                .entry((record.digest.clone(), record.seed))
                .or_default()
                .push(report),
            Err(_) => unreadable += 1,
        }
    }
    let differing = groups
        .values()
        .filter(|reports| reports.iter().any(|r| !r.deterministic_eq(&reports[0])))
        .count();
    Check::new(
        "serve-jobs: every served repeat's stored report equals its fresh run's",
        differing == 0 && unreadable == 0 && !records.is_empty(),
        format!(
            "{} records in {} groups, {differing} groups differ, {unreadable} unreadable",
            records.len(),
            groups.len()
        ),
    )
}

struct Session {
    daemon: Daemon,
    client: Client,
    dir: PathBuf,
}

fn set_up(seed: u64, exe: &Path, m: &mut Measured) -> Result<Session, String> {
    let dir = work_dir("serve-jobs");
    let mut last = None;
    for _ in 0..SETUPS {
        // Dropping an earlier daemon kills and reaps it.
        m.setup.start_round();
        let (daemon, secs) = Daemon::spawn(exe, &dir)?;
        m.setup.record(0, false, secs, 0.0);
        last = Some(daemon);
    }
    Ok(Session {
        daemon: last.expect("spawned at least once"),
        client: Client {
            seed,
            rng: ChaCha8Rng::seed_from_u64(mix_seed(seed, 0x2e9)),
            fresh: Vec::new(),
        },
        dir,
    })
}

fn measure_rounds(s: &mut Session, m: &mut Measured, seconds: f64) -> Result<Tally, String> {
    let mut tally = Tally::default();
    let mut tracer = Tracer::new(false);
    run_rounds(seconds, 3, |r| {
        s.client
            .round(&s.daemon, &mut tally, &mut tracer, &mut m.steps, r)?;
        Ok(m.steps.jobs())
    })?;
    Ok(tally)
}

fn finish(s: Session, m: &mut Measured, tally: &Tally) -> Result<(), String> {
    m.peak_rss_mb = host::peak_rss_mb(s.daemon.pid()).unwrap_or(0.0);
    m.attempted += tally.attempted;
    m.failed += tally.failed;
    m.mc_samples += tally.mc_samples;
    m.best_objective =
        tally.fresh_objectives.iter().sum::<f64>() / tally.fresh_objectives.len().max(1) as f64;
    m.checks.push(Check::new(
        "serve-jobs: every done event has completed == scenarios; fresh jobs computed, repeats served with the fresh objective",
        tally.mismatches.is_empty(),
        if tally.mismatches.is_empty() {
            format!("{} jobs, {} served from cache", tally.attempted, tally.served)
        } else {
            tally.mismatches[..tally.mismatches.len().min(5)].join("; ")
        },
    ));
    m.checks.push(Check::new(
        "serve-jobs: quality averages the first eight rounds' fresh campaigns",
        tally.fresh_objectives.len() == QUALITY_CAMPAIGNS,
        format!(
            "{} of {QUALITY_CAMPAIGNS} objectives",
            tally.fresh_objectives.len()
        ),
    ));
    m.checks.push(store_check(&s.daemon.store));
    let store = s.daemon.store.clone();
    let stopped = s.daemon.shutdown();
    m.checks.push(Check::new(
        "serve-jobs: daemon shut down cleanly",
        stopped.is_ok(),
        stopped.err().unwrap_or_default(),
    ));
    let _ = std::fs::remove_file(store);
    let _ = std::fs::remove_dir_all(&s.dir);
    Ok(())
}

/// The untraced run.
pub fn untraced(seed: u64, seconds: f64, exe: &Path) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut s = set_up(seed, exe, &mut m)?;
    let tally = measure_rounds(&mut s, &mut m, seconds)?;
    finish(s, &mut m, &tally)?;
    Ok(m)
}

fn store_size(path: &Path) -> (f64, f64) {
    let text = std::fs::read_to_string(path).unwrap_or_default();
    (text.lines().count() as f64, text.len() as f64)
}

/// The traced run: untraced rounds for half the time, then traced rounds
/// (client-side spans per job, daemon telemetry deltas) for the rest.
pub fn traced(
    seed: u64,
    seconds: f64,
    exe: &Path,
    per_layer: &mut PerLayer,
) -> Result<Measured, String> {
    let mut m = Measured::default();
    let mut s = set_up(seed, exe, &mut m)?;
    let untraced_tally = measure_rounds(&mut s, &mut m, seconds / 2.0)?;
    let untraced_wall = m.steps.figures().raw_wall_s;

    let mut tracer = Tracer::new(true);
    let mut tally = Tally::default();
    let (lines0, bytes0) = store_size(&s.daemon.store);
    let tele0 = daemon_telemetry(&s.daemon.addr, &TELEMETRY)?;
    let mut traced_steps = Steps::default();
    let started = Instant::now();
    let mut rounds = 0;
    while rounds < 2 || started.elapsed().as_secs_f64() < seconds / 2.0 {
        s.client.round(
            &s.daemon,
            &mut tally,
            &mut tracer,
            &mut traced_steps,
            rounds,
        )?;
        rounds += 1;
    }
    let tele1 = daemon_telemetry(&s.daemon.addr, &TELEMETRY)?;
    let (lines1, bytes1) = store_size(&s.daemon.store);
    let n = rounds as f64;
    let per_round_ms = |i: usize| (tele1[i] - tele0[i]) * 1e3 / n;

    let spans = tracer.spans();
    crate::attribution_metrics(per_layer, spans, untraced_wall, n);
    let stage = |name: &str| {
        let v: Vec<f64> = spans
            .iter()
            .filter(|sp| sp.name == name)
            .map(|sp| (sp.end - sp.start) * 1e3)
            .collect();
        median(&v)
    };
    per_layer.set("serve.connect_ms", stage("serve.connect"));
    per_layer.set("serve.submit_rtt_ms", stage("serve.submit"));
    per_layer.set("serve.queue_ms", stage("serve.queue"));
    per_layer.set("serve.run_ms", stage("serve.run"));
    per_layer.set(
        "serve.refusals",
        (tally.refusals + untraced_tally.refusals) as f64,
    );
    per_layer.set("scenarios.store_append_ms", per_round_ms(0));
    per_layer.set("scenarios.store_appends", (lines1 - lines0) / n);
    per_layer.set("scenarios.store_bytes", (bytes1 - bytes0) / n);
    per_layer.set(
        "scenarios.cache_hit_ratio",
        tally.served as f64 / tally.attempted as f64,
    );
    per_layer.set("core.suggest_ms", per_round_ms(1));
    per_layer.set("core.train_ms", per_round_ms(2));
    per_layer.set("core.eval_ms", per_round_ms(3));
    per_layer.set("core.finetune_ms", per_round_ms(4));
    per_layer.set("core.engine_runs", (ROUND_JOBS / 3) as f64);
    let samples = tally.mc_samples as f64 / n;
    per_layer.set("work.mc_samples", samples);
    // Computed from the moons MLP every fresh job trains (2 → 16 → 16 → 2,
    // as `scenarios` builds it) and its 20 % validation split.
    let shape = Shape::Mlp {
        input: 2,
        hidden: 16,
        classes: 2,
    };
    let val = MOONS_SAMPLES - (MOONS_SAMPLES as f64 * 0.8).round() as usize;
    per_layer.set(
        "reram.weights_perturbed",
        samples * shape.param_count() as f64,
    );
    per_layer.set(
        "tensor.gemm_flops",
        samples * val as f64 * shape.gemm_flops_per_input() as f64,
    );
    per_layer.set("work.scenarios", (ROUND_JOBS / 3) as f64);
    per_layer.set("work.jobs", ROUND_JOBS as f64);

    // Both halves count toward correctness and the quality figure.
    let mut all = untraced_tally;
    all.attempted += tally.attempted;
    all.failed += tally.failed;
    all.served += tally.served;
    all.refusals += tally.refusals;
    all.mc_samples += tally.mc_samples;
    all.mismatches.extend(tally.mismatches);
    all.fresh_objectives.extend(tally.fresh_objectives);
    all.jobs.extend(tally.jobs);
    let dir = s.dir.clone();
    finish(s, &mut m, &all)?;
    crate::write_trace(&dir, &tracer);
    Ok(m)
}

/// The workload's full config, for the result record.
pub fn config(seed: u64) -> Value {
    let (trials, mc, epochs, final_epochs) = BUDGETS;
    let mut v = Value::object();
    v.insert("seed", seed);
    v.insert(
        "daemon",
        "campaign serve --workers 1 --shards 1 --parallelism 1 --queue 64 --isolation thread",
    );
    v.insert(
        "client",
        "closed loop, 1 client, new connection per job, submit + watch to done",
    );
    v.insert("round_jobs", ROUND_JOBS);
    v.insert(
        "mix",
        "1 fresh : 2 repeats of a uniformly chosen earlier fresh campaign",
    );
    v.insert("task", format!("moons:{MOONS_SAMPLES}"));
    v.insert("budgets", vec![trials, mc, epochs, final_epochs]);
    v
}
