//! Crash-safe, append-only JSONL persistence for campaign results.
//!
//! The store is the campaign subsystem's source of truth for resume:
//! appends are line-atomic (one `write` + fsync per record), [`ResultStore::load`]
//! tolerates the one artifact a crash can leave behind (a truncated
//! trailing line) by skipping it with a surfaced warning, and
//! [`ResultStore::compact`] rewrites the file atomically (write-then-rename)
//! into its canonical deduplicated form.

use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use serde_json::Value;

use crate::{CampaignError, ScenarioOutcome};

/// Poll interval while waiting on a contended store lock.
const LOCK_RETRY: Duration = Duration::from_millis(10);
/// How long the internal writers ([`ResultStore::append`],
/// [`ResultStore::compact`]) wait for the advisory lock before giving up.
const LOCK_WAIT: Duration = Duration::from_secs(5);

/// Top-level record fields that are measurements of a particular run, not
/// deterministic results; [`ResultStore::compact`] strips them so serial,
/// sharded, and resumed stores of the same campaign compact to identical
/// bytes.
const VOLATILE_RECORD_KEYS: [&str; 4] = ["from_cache", "from_store", "wall_ms", "compute_wall_ms"];

/// Same, for the nested `report` object (wall-clock timings, worker counts,
/// and campaign-position provenance).
const VOLATILE_REPORT_KEYS: [&str; 4] =
    ["timings", "parallelism", "scenario_index", "scenario_total"];

/// An append-only JSONL store of scenario results: one JSON object per
/// line, human-greppable, crash-safe, and resumable.
///
/// # Example
///
/// ```no_run
/// use scenarios::ResultStore;
///
/// let store = ResultStore::open("campaign_results.jsonl");
/// for record in store.load().unwrap() {
///     println!("{} (seed {}): {:?}", record.scenario, record.seed, record.best_alpha);
/// }
/// ```
#[derive(Debug, Clone)]
pub struct ResultStore {
    path: PathBuf,
}

/// One persisted scenario result, as read back by [`ResultStore::load`].
#[derive(Debug, Clone, PartialEq)]
pub struct StoredRecord {
    /// Campaign name the run belonged to.
    pub campaign: String,
    /// Scenario name.
    pub scenario: String,
    /// Scenario content digest ([`Scenario::digest`](crate::Scenario::digest)).
    pub digest: String,
    /// Master seed of the run.
    pub seed: u64,
    /// Fault specs, in the shared string grammar.
    pub faults: Vec<String>,
    /// Best architecture coordinates the search found.
    pub best_alpha: Vec<f64>,
    /// Objective value of the best trial.
    pub best_objective: f64,
    /// Whether the producing campaign served this outcome from its memo
    /// cache (`false` for compacted stores, which strip measurements).
    pub from_cache: bool,
    /// Whether the outcome was replayed from a prior store by `--resume`.
    pub from_store: bool,
    /// Wall-clock this campaign spent producing the record, in ms (0 for
    /// cache/store hits and compacted stores).
    pub wall_ms: f64,
    /// Wall-clock of the engine run that *originally* computed the result,
    /// preserved across cache and resume hits (0 for compacted stores).
    pub compute_wall_ms: f64,
    /// The full stored line, for fields not lifted into this struct.
    pub raw: Value,
}

/// What [`ResultStore::compact`] did to the file.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CompactionSummary {
    /// Records surviving in the compacted store.
    pub kept: usize,
    /// Older duplicates (same `(digest, seed)`) folded into their latest
    /// record.
    pub dropped_duplicates: usize,
    /// Whether a truncated trailing line (crash artifact) was dropped.
    pub dropped_truncated: bool,
}

/// What [`ResultStore::merge_from`] did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MergeSummary {
    /// How many input stores were merged.
    pub inputs: usize,
    /// Total records read across all inputs (pre-dedup).
    pub records: usize,
    /// Records surviving in the merged, compacted store.
    pub kept: usize,
    /// Duplicates (same `(digest, seed)`) folded during compaction.
    pub dropped_duplicates: usize,
    /// Reproducibility conflicts: `(digest, seed)` groups whose payloads
    /// disagreed across inputs. The merge keeps the latest record but
    /// never silently — each conflict is described here.
    pub conflicts: Vec<String>,
    /// Warnings from tolerant input loading (truncated crash tails).
    pub warnings: Vec<String>,
}

/// Result of comparing all stored runs that share a `(digest, seed)` key.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareGroup {
    /// Scenario name of the first run in the group.
    pub scenario: String,
    /// Scenario content digest.
    pub digest: String,
    /// Master seed.
    pub seed: u64,
    /// How many stored runs share the key.
    pub runs: usize,
    /// Whether every run reproduced bit-identical `best_alpha` and
    /// `best_objective` values.
    pub identical: bool,
    /// The first run's best α (the reference the others were checked
    /// against).
    pub best_alpha: Vec<f64>,
    /// The first run's best objective value.
    pub best_objective: f64,
    /// Real compute cost of the group in ms: the **sum** of
    /// `compute_wall_ms` over the group's *fresh* records (neither
    /// cache- nor store-served) — every fresh record paid for its own
    /// engine run, so summing counts each run exactly once across
    /// re-runs, resumes, and shard merges, while cache/store hits (which
    /// merely *preserve* the original run's timing) are excluded to avoid
    /// double-counting. When the group has no fresh records (every record
    /// is a replay, or compaction stripped provenance), falls back to the
    /// **max** preserved `compute_wall_ms` — the cost of the one engine
    /// run all those replays point back to. 0 when the store only holds
    /// compacted records.
    pub compute_wall_ms: f64,
}

/// An advisory, flock-style lock on a [`ResultStore`], held as long as the
/// guard lives.
///
/// The lock is an OS advisory lock on a sibling file (`<store>.lock`), so
/// two processes cannot both own it; dropping the guard — or the owning
/// process dying, however abruptly — releases it, so a crashed writer can
/// never leave the store wedged. [`ResultStore::append`] and
/// [`ResultStore::compact`] take it internally around their critical
/// sections, which is what keeps two concurrent writer processes from
/// interleaving a compaction rename with appends. The lock file itself
/// persists on disk (removing it would race a waiter locking the old
/// inode) and records the current holder's PID for diagnostics.
#[derive(Debug)]
pub struct StoreLock {
    /// Keeps the OS lock alive; closing the file releases it.
    file: File,
    path: PathBuf,
}

impl StoreLock {
    /// The lock file's path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for StoreLock {
    fn drop(&mut self) {
        let _ = self.file.unlock();
    }
}

impl ResultStore {
    /// Points the store at `path`; no I/O happens until the first
    /// [`ResultStore::append`] or [`ResultStore::load`].
    pub fn open(path: impl Into<PathBuf>) -> Self {
        ResultStore { path: path.into() }
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The advisory lock file's path: `<store>.lock` beside the store.
    pub fn lock_path(&self) -> PathBuf {
        let mut os = self.path.as_os_str().to_os_string();
        os.push(".lock");
        PathBuf::from(os)
    }

    /// Attempts to take the advisory writer lock without waiting. Returns
    /// `Ok(None)` when another holder owns it.
    ///
    /// The lock is a kernel advisory lock on the lock file, not the file's
    /// existence: a leftover `<store>.lock` from a dead process is simply
    /// re-locked, so crashes cannot wedge the store.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Io`] on filesystem failures.
    pub fn try_lock(&self) -> Result<Option<StoreLock>, CampaignError> {
        if let Some(parent) = self.path.parent() {
            if !parent.as_os_str().is_empty() {
                fs::create_dir_all(parent)?;
            }
        }
        let path = self.lock_path();
        let mut file = OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        match file.try_lock() {
            Ok(()) => {
                // Record the holder so a contended lock is diagnosable; the
                // tag is best-effort (the kernel lock, not the content, is
                // the mutual-exclusion mechanism — no fsync needed).
                let _ = file.set_len(0);
                let _ = write!(file, "{}", std::process::id());
                Ok(Some(StoreLock { file, path }))
            }
            Err(std::fs::TryLockError::WouldBlock) => Ok(None),
            Err(std::fs::TryLockError::Error(e)) => Err(e.into()),
        }
    }

    /// Takes the advisory writer lock, waiting up to `max_wait` for a
    /// current holder to release it.
    ///
    /// While the returned guard lives, every other writer — including this
    /// store's own [`ResultStore::append`]/[`ResultStore::compact`] calls
    /// from other handles or processes — blocks and then fails, so hold it
    /// only around externally-coordinated critical sections.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Locked`] when the lock is still held after
    /// `max_wait` (only a live process can hold it — the kernel releases a
    /// dead holder's lock), and [`CampaignError::Io`] on filesystem
    /// failures.
    pub fn lock_waiting(&self, max_wait: Duration) -> Result<StoreLock, CampaignError> {
        let _t = telemetry::Timer::start(telemetry::duration_histogram!("store_lock_wait_seconds"));
        let deadline = Instant::now() + max_wait;
        loop {
            if let Some(guard) = self.try_lock()? {
                return Ok(guard);
            }
            if Instant::now() >= deadline {
                let holder = fs::read_to_string(self.lock_path()).unwrap_or_default();
                return Err(CampaignError::Locked(format!(
                    "{}: lock held{} after waiting {:.1}s",
                    self.lock_path().display(),
                    if holder.trim().is_empty() {
                        String::new()
                    } else {
                        format!(" by pid {}", holder.trim())
                    },
                    max_wait.as_secs_f64(),
                )));
            }
            std::thread::sleep(LOCK_RETRY);
        }
    }

    /// [`ResultStore::lock_waiting`] with the writers' default patience.
    ///
    /// # Errors
    ///
    /// See [`ResultStore::lock_waiting`].
    pub fn lock(&self) -> Result<StoreLock, CampaignError> {
        self.lock_waiting(LOCK_WAIT)
    }

    /// Appends one scenario outcome as a JSONL line, creating the file
    /// (and parent directories) on first use.
    ///
    /// The full line (record + newline) goes down in a single `write`
    /// followed by an fsync, so a crash can lose or truncate at most the
    /// line being written — the exact artifact [`ResultStore::load`]
    /// tolerates. The advisory store lock is held for the duration of the
    /// write, so an append from one process can never interleave with
    /// another process's compaction rename.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Io`] on filesystem failures and
    /// [`CampaignError::Locked`] if another writer holds the store lock
    /// past the bounded wait.
    pub fn append(&self, campaign: &str, outcome: &ScenarioOutcome) -> Result<(), CampaignError> {
        let _t = telemetry::Timer::start(telemetry::duration_histogram!("store_append_seconds"));
        telemetry::static_counter!("store_appends_total").inc();
        let _lock = self.lock()?;
        let mut line = Value::object();
        line.insert("campaign", campaign);
        line.insert("scenario", outcome.scenario.name.as_str());
        line.insert("digest", outcome.digest.as_str());
        line.insert("seed", outcome.scenario.seed);
        line.insert(
            "faults",
            Value::Array(
                outcome
                    .scenario
                    .faults
                    .iter()
                    .map(|f| Value::String(f.to_string()))
                    .collect(),
            ),
        );
        line.insert("from_cache", outcome.from_cache);
        line.insert("from_store", outcome.from_store);
        line.insert("wall_ms", outcome.wall_ms);
        line.insert("compute_wall_ms", outcome.compute_wall_ms);
        line.insert("report", outcome.report.to_json());
        let mut text = serde_json::to_string(&line);
        text.push('\n');
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        file.write_all(text.as_bytes())?;
        {
            let _t = telemetry::Timer::start(telemetry::duration_histogram!("store_fsync_seconds"));
            file.sync_data()?;
        }
        Ok(())
    }

    /// Appends already-serialized records — e.g. a per-job worker store
    /// being folded into the daemon's — as one batch: one lock
    /// acquisition, one `write`, one fsync, so a crash mid-batch leaves
    /// at most one truncated trailing line exactly like
    /// [`ResultStore::append`] does.
    ///
    /// An empty batch is a no-op (the file is not even created).
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Io`] on filesystem failures and
    /// [`CampaignError::Locked`] if another writer holds the store lock
    /// past the bounded wait.
    pub fn append_records(&self, records: &[Value]) -> Result<(), CampaignError> {
        if records.is_empty() {
            return Ok(());
        }
        telemetry::static_counter!("store_appends_total").add(records.len() as u64);
        let _lock = self.lock()?;
        let mut text = String::new();
        for record in records {
            text.push_str(&serde_json::to_string(record));
            text.push('\n');
        }
        let mut file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        file.write_all(text.as_bytes())?;
        {
            let _t = telemetry::Timer::start(telemetry::duration_histogram!("store_fsync_seconds"));
            file.sync_data()?;
        }
        Ok(())
    }

    /// Reads every stored record, in append order, tolerating a truncated
    /// trailing line. A missing file is an empty store, not an error.
    ///
    /// This is [`ResultStore::load_lenient`] with the warnings dropped;
    /// callers that surface diagnostics (the CLI, campaign resume) should
    /// prefer the lenient variant.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Io`] on filesystem failures and
    /// [`CampaignError::Parse`] (with the line number) on a corrupt
    /// non-trailing line.
    pub fn load(&self) -> Result<Vec<StoredRecord>, CampaignError> {
        Ok(self.load_lenient()?.0)
    }

    /// Reads every stored record plus the warnings tolerant loading
    /// produced.
    ///
    /// A line that fails to parse is fatal **unless** it is an
    /// *unterminated* final line — no trailing newline, the one artifact
    /// the single-write + fsync append discipline can leave when a process
    /// is killed mid-append. Refusing to read the other N−1 results would
    /// make every crash unrecoverable, so that line is skipped with a
    /// warning (never silently). A newline-**terminated** malformed line
    /// is *not* a crash artifact (the newline goes down in the same write
    /// as the record) and stays fatal wherever it sits, so corruption is
    /// caught before further appends could bury it mid-file.
    ///
    /// Lines are split at the byte level before UTF-8 conversion: a crash
    /// can cut the file in the middle of a multi-byte character, which
    /// must degrade into the tolerated truncated-tail case rather than a
    /// whole-file decode error.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Io`] on filesystem failures and
    /// [`CampaignError::Parse`] (with the line number) on any corrupt
    /// line other than an unterminated trailing one.
    pub fn load_lenient(&self) -> Result<(Vec<StoredRecord>, Vec<String>), CampaignError> {
        let bytes = match fs::read(&self.path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Ok((Vec::new(), Vec::new()))
            }
            Err(e) => return Err(e.into()),
        };
        let unterminated_tail = !bytes.is_empty() && !bytes.ends_with(b"\n");
        let segments: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
        let last = segments.len() - 1;
        let mut records = Vec::with_capacity(segments.len());
        let mut warnings = Vec::new();
        for (i, segment) in segments.iter().enumerate() {
            if segment.iter().all(u8::is_ascii_whitespace) {
                continue;
            }
            let parsed = std::str::from_utf8(segment)
                .map_err(|e| format!("invalid UTF-8: {e}"))
                .and_then(|line| serde_json::from_str(line).map_err(|e| format!("{e}")))
                .and_then(|value| StoredRecord::from_json(value).map_err(|e| e.to_string()));
            match parsed {
                Ok(record) => records.push(record),
                Err(e) if i == last && unterminated_tail => {
                    warnings.push(format!(
                        "{}:{}: skipped truncated trailing line ({e}); the interrupted \
                         scenario will be re-run on resume",
                        self.path.display(),
                        i + 1,
                    ));
                }
                Err(e) => {
                    return Err(CampaignError::Parse(format!(
                        "{}:{}: {e}",
                        self.path.display(),
                        i + 1
                    )));
                }
            }
        }
        Ok((records, warnings))
    }

    /// Truncates a partial trailing line — the artifact a crash
    /// mid-append leaves behind (bytes after the last newline) — so
    /// subsequent appends start on a fresh line instead of concatenating
    /// onto garbage. Returns a description of the dropped fragment, or
    /// `None` if the store was already clean (or absent). Holds the
    /// advisory store lock across the read-and-truncate, so the offset is
    /// never applied to a file another process rewrote in between.
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::Io`] on filesystem failures and
    /// [`CampaignError::Locked`] if another writer holds the store lock
    /// past the bounded wait.
    pub fn drop_partial_tail(&self) -> Result<Option<String>, CampaignError> {
        let _lock = self.lock()?;
        let mut file = match File::open(&self.path) {
            Ok(file) => file,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(e.into()),
        };
        // A clean store costs one byte of I/O, not a whole-file read.
        let len = file.metadata()?.len();
        if len == 0 {
            return Ok(None);
        }
        let mut last = [0u8; 1];
        file.seek(SeekFrom::End(-1))?;
        file.read_exact(&mut last)?;
        if last == *b"\n" {
            return Ok(None);
        }
        let keep = end_of_last_line(&mut file, len)?;
        let file = OpenOptions::new().write(true).open(&self.path)?;
        file.set_len(keep)?;
        file.sync_all()?;
        Ok(Some(format!(
            "{}: dropped a {}-byte partial trailing line (crash artifact); the \
             interrupted scenario will be re-run",
            self.path.display(),
            len - keep,
        )))
    }

    /// Rewrites the store into its canonical compact form: records are
    /// deduplicated by `(digest, seed)` — the latest record wins, holding
    /// its first-appearance (campaign-order) position — measurement-only
    /// fields (wall-clocks, cache provenance, report timings) are
    /// stripped, and any truncated trailing line is dropped.
    ///
    /// Two stores of the same campaign compact to **byte-identical**
    /// files regardless of shard count, resume history, or how often the
    /// campaign was re-run — the form the reproducibility acceptance check
    /// diffs.
    ///
    /// The rewrite is atomic: a temporary file in the same directory is
    /// fully written and fsynced, then renamed over the original. A crash
    /// mid-compaction leaves the original store untouched. The advisory
    /// store lock is held from the read to the rename, so a concurrent
    /// writer process can neither append between them (the append would be
    /// silently dropped by the rename) nor race a second compaction.
    ///
    /// # Errors
    ///
    /// Propagates [`ResultStore::load_lenient`] errors, and returns
    /// [`CampaignError::Io`] on filesystem failures and
    /// [`CampaignError::Locked`] if another writer holds the store lock
    /// past the bounded wait.
    pub fn compact(&self) -> Result<CompactionSummary, CampaignError> {
        let _lock = self.lock()?;
        if !self.path.exists() {
            return Ok(CompactionSummary::default());
        }
        let (records, warnings) = self.load_lenient()?;
        let mut kept: Vec<Value> = Vec::with_capacity(records.len());
        // Key → position in `kept`: resumed stores accumulate one record
        // per scenario per run, so dedup must stay O(n).
        let mut index: HashMap<(String, u64), usize> = HashMap::with_capacity(records.len());
        let mut dropped_duplicates = 0usize;
        for record in records {
            let canonical = canonicalize(record.raw);
            match index.entry((record.digest, record.seed)) {
                Entry::Occupied(slot) => {
                    // Latest content wins, campaign-order position stays.
                    kept[*slot.get()] = canonical;
                    dropped_duplicates += 1;
                }
                Entry::Vacant(slot) => {
                    slot.insert(kept.len());
                    kept.push(canonical);
                }
            }
        }
        let mut text = String::new();
        for value in &kept {
            text.push_str(&serde_json::to_string(value));
            text.push('\n');
        }
        let tmp = self.path.with_extension("jsonl.compact-tmp");
        {
            let mut file = File::create(&tmp)?;
            file.write_all(text.as_bytes())?;
            file.sync_all()?;
        }
        fs::rename(&tmp, &self.path)?;
        Ok(CompactionSummary {
            kept: kept.len(),
            dropped_duplicates,
            dropped_truncated: !warnings.is_empty(),
        })
    }

    /// Replaces this store with the union of `inputs` — the cross-process
    /// half of campaign sharding. Each `campaign run --shard-index i
    /// --shard-count n` process persists its owned scenarios *with their
    /// full-campaign positions*; merging stable-sorts the concatenated
    /// records by that persisted `report.scenario_index`, which
    /// reconstructs the exact append order of a serial run, then compacts.
    /// The merged, compacted store is therefore **byte-identical** to a
    /// serial `campaign run` store of the same campaign.
    ///
    /// Conflicting records — same `(digest, seed)` but diverging
    /// `best_alpha`/`best_objective` payloads — are never dropped
    /// silently: the merge runs the [`ResultStore::compare`]
    /// reproducibility audit on the pre-compaction union and reports each
    /// disagreeing group in [`MergeSummary::conflicts`] (compaction then
    /// keeps the latest record, as always).
    ///
    /// Records without a persisted position (already-compacted inputs)
    /// sort after positioned ones, preserving input order among
    /// themselves.
    ///
    /// The merged pre-compaction file is written atomically
    /// (write-then-rename) under the store lock; any previous content of
    /// this store is replaced.
    ///
    /// # Errors
    ///
    /// Propagates [`ResultStore::load_lenient`] errors from the inputs,
    /// and returns [`CampaignError::Io`] on filesystem failures and
    /// [`CampaignError::Locked`] if another writer holds this store's lock
    /// past the bounded wait.
    pub fn merge_from(&self, inputs: &[ResultStore]) -> Result<MergeSummary, CampaignError> {
        let mut records: Vec<StoredRecord> = Vec::new();
        let mut warnings = Vec::new();
        for input in inputs {
            let (mut recs, mut warns) = input.load_lenient()?;
            records.append(&mut recs);
            warnings.append(&mut warns);
        }
        let total = records.len();
        // Stable sort: ties (re-runs of the same position) keep input
        // order, so "latest wins" during compaction means the last input
        // store listed.
        records.sort_by_key(|r| persisted_position(&r.raw).unwrap_or(u64::MAX));
        {
            let _lock = self.lock()?;
            if let Some(parent) = self.path.parent() {
                if !parent.as_os_str().is_empty() {
                    fs::create_dir_all(parent)?;
                }
            }
            let mut text = String::new();
            for record in &records {
                text.push_str(&serde_json::to_string(&record.raw));
                text.push('\n');
            }
            let tmp = self.path.with_extension("jsonl.merge-tmp");
            {
                let mut file = File::create(&tmp)?;
                file.write_all(text.as_bytes())?;
                file.sync_all()?;
            }
            fs::rename(&tmp, &self.path)?;
            // Guard drops here: `compare`/`compact` below take their own
            // locks, and two descriptors in one process *do* conflict.
        }
        let conflicts: Vec<String> = self
            .compare()?
            .into_iter()
            .filter(|g| g.runs > 1 && !g.identical)
            .map(|g| {
                format!(
                    "{} (digest {}, seed {}): {} stored runs disagree on \
                     best_alpha/best_objective; inputs are not reproductions of \
                     each other (latest record kept)",
                    g.scenario, g.digest, g.seed, g.runs,
                )
            })
            .collect();
        let compaction = self.compact()?;
        Ok(MergeSummary {
            inputs: inputs.len(),
            records: total,
            kept: compaction.kept,
            dropped_duplicates: compaction.dropped_duplicates,
            conflicts,
            warnings,
        })
    }

    /// Groups every stored run by `(digest, seed)` and checks that runs
    /// sharing a key reproduced bit-identical best-α vectors — the
    /// reproducibility audit behind `campaign compare`.
    ///
    /// Groups are returned in first-appearance order.
    ///
    /// # Errors
    ///
    /// Propagates [`ResultStore::load`] errors.
    pub fn compare(&self) -> Result<Vec<CompareGroup>, CampaignError> {
        let records = self.load()?;
        let mut groups: Vec<CompareGroup> = Vec::new();
        // Per-group cost accumulators (sum over fresh records, max over
        // all records), folded into `compute_wall_ms` at the end — see
        // the field's docs for the aggregation semantics.
        let mut costs: Vec<(f64, f64)> = Vec::new();
        for record in &records {
            let fresh = !record.from_cache && !record.from_store;
            let fresh_ms = if fresh { record.compute_wall_ms } else { 0.0 };
            match groups
                .iter()
                .position(|g| g.digest == record.digest && g.seed == record.seed)
            {
                None => {
                    groups.push(CompareGroup {
                        scenario: record.scenario.clone(),
                        digest: record.digest.clone(),
                        seed: record.seed,
                        runs: 1,
                        identical: true,
                        best_alpha: record.best_alpha.clone(),
                        best_objective: record.best_objective,
                        compute_wall_ms: 0.0,
                    });
                    costs.push((fresh_ms, record.compute_wall_ms));
                }
                Some(i) => {
                    let group = &mut groups[i];
                    group.runs += 1;
                    costs[i].0 += fresh_ms;
                    costs[i].1 = costs[i].1.max(record.compute_wall_ms);
                    // Bit-identical means exact f64 equality, nothing
                    // fuzzier — except that two NaN results (stored as
                    // JSON null) count as reproducing each other: the
                    // engine guarantees determinism, the store must be
                    // able to prove it.
                    let same = group.best_alpha.len() == record.best_alpha.len()
                        && group
                            .best_alpha
                            .iter()
                            .zip(&record.best_alpha)
                            .all(|(a, b)| nan_aware_eq(*a, *b))
                        && nan_aware_eq(group.best_objective, record.best_objective);
                    if !same {
                        group.identical = false;
                    }
                }
            }
        }
        for (group, (fresh_sum, max_preserved)) in groups.iter_mut().zip(costs) {
            group.compute_wall_ms = if fresh_sum > 0.0 {
                fresh_sum
            } else {
                max_preserved
            };
        }
        Ok(groups)
    }
}

/// The full-campaign position a pre-compaction record was produced at
/// (`report.scenario_index`); `None` once compaction has stripped it.
fn persisted_position(raw: &Value) -> Option<u64> {
    raw.get("report")?.get("scenario_index")?.as_u64()
}

/// Exact f64 equality, except that NaN reproduces NaN — diverged results
/// round-trip through JSON `null`, and two runs that both diverged did
/// reproduce each other.
fn nan_aware_eq(a: f64, b: f64) -> bool {
    (a.is_nan() && b.is_nan()) || a == b
}

/// Strips the measurement-only fields from a stored record, leaving the
/// deterministic content in its original key order.
fn canonicalize(mut value: Value) -> Value {
    for key in VOLATILE_RECORD_KEYS {
        value.remove(key);
    }
    if let Some(report) = value.get_mut("report") {
        for key in VOLATILE_REPORT_KEYS {
            report.remove(key);
        }
    }
    value
}

impl StoredRecord {
    fn from_json(value: Value) -> Result<Self, CampaignError> {
        let text = |key: &str| -> Result<String, CampaignError> {
            value
                .get(key)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| CampaignError::Parse(format!("record is missing '{key}'")))
        };
        // The vendored serializer writes non-finite f64s as JSON `null`
        // (a diverged scenario can legitimately report a NaN objective),
        // so `null` reads back as NaN here rather than poisoning the
        // whole store as a fatal parse error.
        let lenient_f64 = |v: &Value, what: &str| -> Result<f64, CampaignError> {
            match v {
                Value::Null => Ok(f64::NAN),
                _ => v
                    .as_f64()
                    .ok_or_else(|| CampaignError::Parse(format!("non-numeric {what}"))),
            }
        };
        let report = value
            .get("report")
            .ok_or_else(|| CampaignError::Parse("record is missing 'report'".into()))?;
        let best_alpha = report
            .get("best_alpha")
            .and_then(Value::as_array)
            .ok_or_else(|| CampaignError::Parse("report is missing 'best_alpha'".into()))?
            .iter()
            .map(|v| lenient_f64(v, "best_alpha entry"))
            .collect::<Result<Vec<_>, _>>()?;
        let best_objective = lenient_f64(
            report
                .get("best_objective")
                .ok_or_else(|| CampaignError::Parse("report is missing 'best_objective'".into()))?,
            "best_objective",
        )?;
        let faults = value
            .get("faults")
            .and_then(Value::as_array)
            .ok_or_else(|| CampaignError::Parse("record is missing 'faults'".into()))?
            .iter()
            .map(|v| {
                v.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| CampaignError::Parse("non-string faults entry".into()))
            })
            .collect::<Result<Vec<_>, _>>()?;
        // Measurement fields are optional: compacted stores strip them and
        // pre-compaction stores from older versions lack some of them.
        let wall_ms = value.get("wall_ms").and_then(Value::as_f64).unwrap_or(0.0);
        let compute_wall_ms = value
            .get("compute_wall_ms")
            .and_then(Value::as_f64)
            .unwrap_or(wall_ms);
        Ok(StoredRecord {
            campaign: text("campaign")?,
            scenario: text("scenario")?,
            digest: text("digest")?,
            seed: value
                .get("seed")
                .and_then(Value::as_u64)
                .ok_or_else(|| CampaignError::Parse("record is missing 'seed'".into()))?,
            faults,
            best_alpha,
            best_objective,
            from_cache: value
                .get("from_cache")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            from_store: value
                .get("from_store")
                .and_then(Value::as_bool)
                .unwrap_or(false),
            wall_ms,
            compute_wall_ms,
            raw: value,
        })
    }
}

/// The length of `file`'s prefix (of `len` bytes) up to and including
/// its last newline, or 0 if it has none, read backwards in blocks.
fn end_of_last_line(file: &mut File, len: u64) -> std::io::Result<u64> {
    let mut block = [0u8; 8192];
    let mut end = len;
    while end > 0 {
        let start = end.saturating_sub(block.len() as u64);
        let chunk = &mut block[..(end - start) as usize];
        file.seek(SeekFrom::Start(start))?;
        file.read_exact(chunk)?;
        if let Some(pos) = chunk.iter().rposition(|&b| b == b'\n') {
            return Ok(start + pos as u64 + 1);
        }
        end = start;
    }
    Ok(0)
}
