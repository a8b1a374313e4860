//! Crash-safety tests for the JSONL result store: truncated-tail
//! tolerance, partial-tail repair, and atomic deduplicating compaction —
//! all on hand-written files, no engine runs needed.

use std::fs;
use std::path::PathBuf;

use scenarios::ResultStore;

fn temp_path(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("bayesft-store-{}-{tag}.jsonl", std::process::id()))
}

/// A minimal valid record line for `(digest, seed)` with a given scenario
/// name and objective.
fn line(digest: &str, seed: u64, scenario: &str, objective: f64, wall: f64) -> String {
    format!(
        concat!(
            r#"{{"campaign":"t","scenario":"{}","digest":"{}","seed":{},"faults":["lognormal:0.3"],"#,
            r#""from_cache":false,"from_store":false,"wall_ms":{},"compute_wall_ms":{},"#,
            r#""report":{{"space":"per_layer","objective":"o","dim":1,"seed":{},"parallelism":1,"#,
            r#""trials":[],"best_alpha":[0.5],"best_objective":{},"#,
            r#""timings":{{"suggest_ms":1,"train_ms":2,"eval_ms":3,"finetune_ms":4,"total_ms":10}}}}}}"#,
        ),
        scenario, digest, seed, wall, wall, seed, objective
    )
}

#[test]
fn missing_store_loads_empty_and_compacts_to_nothing() {
    let store = ResultStore::open(temp_path("missing"));
    let _ = fs::remove_file(store.path());
    assert!(store.load().unwrap().is_empty());
    assert!(store.drop_partial_tail().unwrap().is_none());
    let summary = store.compact().unwrap();
    assert_eq!(summary.kept, 0);
    assert!(!store.path().exists(), "compacting nothing creates nothing");
}

#[test]
fn truncated_trailing_line_is_skipped_with_a_warning() {
    let store = ResultStore::open(temp_path("trunc"));
    let text = format!(
        "{}\n{}\n{}",
        line("aaaa", 1, "s0", 0.5, 10.0),
        line("bbbb", 1, "s1", 0.6, 11.0),
        r#"{"campaign":"t","scenario":"s2","dig"#, // killed mid-append
    );
    fs::write(store.path(), text).unwrap();

    let (records, warnings) = store.load_lenient().unwrap();
    assert_eq!(records.len(), 2, "the two complete lines survive");
    assert_eq!(records[1].scenario, "s1");
    assert_eq!(warnings.len(), 1);
    assert!(
        warnings[0].contains("truncated trailing line"),
        "{warnings:?}"
    );
    assert!(
        warnings[0].contains(":3"),
        "warning names the line: {warnings:?}"
    );
    // The tolerant plain load agrees.
    assert_eq!(store.load().unwrap().len(), 2);
    let _ = fs::remove_file(store.path());
}

#[test]
fn truncation_mid_multibyte_character_is_tolerated() {
    // A crash can cut the file inside a multi-byte UTF-8 character; that
    // must degrade into the tolerated truncated-tail case, not a fatal
    // whole-file decode error.
    let store = ResultStore::open(temp_path("utf8"));
    let good = line("aaaa", 1, "s0", 0.5, 10.0);
    let tail = r#"{"campaign":"t","scenario":"café"#.as_bytes();
    let mut bytes = format!("{good}\n").into_bytes();
    bytes.extend_from_slice(&tail[..tail.len() - 1]); // cut inside 'é'
    fs::write(store.path(), bytes).unwrap();

    let (records, warnings) = store.load_lenient().unwrap();
    assert_eq!(records.len(), 1);
    assert_eq!(warnings.len(), 1);
    assert!(warnings[0].contains("UTF-8"), "{warnings:?}");
    assert!(store.drop_partial_tail().unwrap().is_some());
    assert_eq!(store.load().unwrap().len(), 1);
    let _ = fs::remove_file(store.path());
}

#[test]
fn newline_terminated_malformed_final_line_is_fatal() {
    // A complete (newline-terminated) malformed line is corruption, not a
    // crash artifact — tolerating it would let the next append bury it
    // mid-file and poison every later load.
    let store = ResultStore::open(temp_path("terminated"));
    let text = format!(
        "{}\n{{\"not\":\"a record\"}}\n",
        line("aaaa", 1, "s0", 0.5, 10.0)
    );
    fs::write(store.path(), text).unwrap();
    let err = store.load().unwrap_err();
    assert!(err.to_string().contains(":2"), "{err}");
    assert!(
        store.drop_partial_tail().unwrap().is_none(),
        "a terminated line is not a partial tail"
    );
    let _ = fs::remove_file(store.path());
}

#[test]
fn corrupt_non_trailing_line_is_still_fatal() {
    let store = ResultStore::open(temp_path("corrupt"));
    let text = format!(
        "{}\nnot json at all\n{}\n",
        line("aaaa", 1, "s0", 0.5, 10.0),
        line("bbbb", 1, "s1", 0.6, 11.0),
    );
    fs::write(store.path(), text).unwrap();
    let err = store.load().unwrap_err();
    assert!(err.to_string().contains(":2"), "{err}");
    let _ = fs::remove_file(store.path());
}

#[test]
fn drop_partial_tail_repairs_for_future_appends() {
    let store = ResultStore::open(temp_path("repair"));
    let good = line("aaaa", 1, "s0", 0.5, 10.0);
    fs::write(store.path(), format!("{good}\n{{\"half\":")).unwrap();

    let dropped = store.drop_partial_tail().unwrap();
    assert!(dropped.unwrap().contains("partial trailing line"));
    let bytes = fs::read(store.path()).unwrap();
    assert!(bytes.ends_with(b"\n"), "file ends on a line boundary again");
    assert_eq!(store.load().unwrap().len(), 1);
    // Idempotent once clean.
    assert!(store.drop_partial_tail().unwrap().is_none());
    let _ = fs::remove_file(store.path());
}

#[test]
fn drop_partial_tail_leaves_a_clean_store_byte_identical() {
    let store = ResultStore::open(temp_path("clean"));
    let text = format!(
        "{}\n{}\n",
        line("aaaa", 1, "s0", 0.5, 10.0),
        line("bbbb", 1, "s1", 0.6, 11.0)
    );
    fs::write(store.path(), &text).unwrap();
    let modified = fs::metadata(store.path()).unwrap().modified().unwrap();
    assert!(store.drop_partial_tail().unwrap().is_none());
    assert_eq!(fs::read(store.path()).unwrap(), text.as_bytes());
    assert_eq!(
        fs::metadata(store.path()).unwrap().modified().unwrap(),
        modified,
        "a clean store is not rewritten"
    );
    // An empty store is clean too.
    fs::write(store.path(), "").unwrap();
    assert!(store.drop_partial_tail().unwrap().is_none());
    assert_eq!(fs::read(store.path()).unwrap(), b"");
    let _ = fs::remove_file(store.path());
}

/// The backwards newline scan crosses read-block boundaries: a partial
/// tail longer than one block, and a file with no newline at all.
#[test]
fn drop_partial_tail_finds_the_line_end_behind_a_long_tail() {
    let store = ResultStore::open(temp_path("longtail"));
    let good = line("aaaa", 1, "s0", 0.5, 10.0);
    let tail = format!("{{\"scenario\":\"{}", "x".repeat(20_000));
    fs::write(store.path(), format!("{good}\n{tail}")).unwrap();
    let dropped = store.drop_partial_tail().unwrap().unwrap();
    assert!(
        dropped.contains(&format!("{}-byte", tail.len())),
        "{dropped}"
    );
    assert_eq!(
        fs::read(store.path()).unwrap(),
        format!("{good}\n").as_bytes()
    );

    fs::write(store.path(), "y".repeat(9_000)).unwrap();
    assert!(store.drop_partial_tail().unwrap().is_some());
    assert_eq!(fs::read(store.path()).unwrap(), b"");
    let _ = fs::remove_file(store.path());
}

#[test]
fn compact_dedups_by_digest_seed_keeping_latest_in_first_position() {
    let store = ResultStore::open(temp_path("dedup"));
    let text = format!(
        "{}\n{}\n{}\n{}\n{}",
        line("aaaa", 1, "s0", 0.5, 10.0),
        line("bbbb", 2, "s1", 0.6, 11.0),
        line("aaaa", 1, "s0-rerun", 0.5, 12.0), // same key, later record
        line("aaaa", 7, "s0-other-seed", 0.4, 13.0), // same digest, new seed
        r#"{"trunca"#,
    );
    fs::write(store.path(), text).unwrap();

    let summary = store.compact().unwrap();
    assert_eq!(summary.kept, 3);
    assert_eq!(summary.dropped_duplicates, 1);
    assert!(summary.dropped_truncated);

    let records = store.load().unwrap();
    assert_eq!(records.len(), 3);
    // Latest payload, first-appearance position.
    assert_eq!(records[0].scenario, "s0-rerun");
    assert_eq!(records[1].scenario, "s1");
    assert_eq!(records[2].scenario, "s0-other-seed");
    // Measurement fields are canonicalized away...
    assert_eq!(records[0].wall_ms, 0.0);
    assert_eq!(records[0].compute_wall_ms, 0.0);
    assert!(records[0].raw.get("from_cache").is_none());
    assert!(records[0]
        .raw
        .get("report")
        .unwrap()
        .get("timings")
        .is_none());
    // ...but the deterministic content survives.
    assert_eq!(records[0].best_alpha, vec![0.5]);
    assert_eq!(records[2].seed, 7);

    // Compaction is idempotent: a second pass changes nothing.
    let before = fs::read(store.path()).unwrap();
    let summary2 = store.compact().unwrap();
    assert_eq!(summary2.kept, 3);
    assert_eq!(summary2.dropped_duplicates, 0);
    assert!(!summary2.dropped_truncated);
    assert_eq!(fs::read(store.path()).unwrap(), before);
    let _ = fs::remove_file(store.path());
}

#[test]
fn nan_objectives_serialized_as_null_do_not_poison_the_store() {
    // A fully-diverged scenario reports best_objective = NaN, which the
    // vendored serializer writes as JSON null. The record must stay
    // loadable (null → NaN), and two NaN runs must count as reproducing
    // each other in the compare audit.
    let store = ResultStore::open(temp_path("nan"));
    let nan_line = line("aaaa", 1, "diverged", 0.0, 10.0)
        .replace(r#""best_objective":0"#, r#""best_objective":null"#)
        .replace(r#""best_alpha":[0.5]"#, r#""best_alpha":[null]"#);
    fs::write(store.path(), format!("{nan_line}\n{nan_line}\n")).unwrap();

    let records = store.load().unwrap();
    assert_eq!(records.len(), 2);
    assert!(records[0].best_objective.is_nan());
    assert!(records[0].best_alpha[0].is_nan());

    let groups = store.compare().unwrap();
    assert_eq!(groups.len(), 1);
    assert_eq!(groups[0].runs, 2);
    assert!(
        groups[0].identical,
        "two NaN runs reproduce each other (NaN != NaN must not diverge the audit)"
    );

    // A NaN run vs a finite run IS a divergence.
    let finite = line("aaaa", 1, "diverged", 0.5, 10.0);
    fs::write(store.path(), format!("{nan_line}\n{finite}\n")).unwrap();
    assert!(!store.compare().unwrap()[0].identical);

    // And compaction still works on NaN records.
    let summary = store.compact().unwrap();
    assert_eq!(summary.kept, 1);
    assert_eq!(summary.dropped_duplicates, 1);
    let _ = fs::remove_file(store.path());
}

#[test]
fn compare_reports_real_compute_cost_across_cache_hits() {
    let store = ResultStore::open(temp_path("cost"));
    // A cache-served record (serving cost 0, original compute preserved)
    // followed by a fresh run: compare must surface a real cost either
    // way, falling back past zero-wall records.
    let cached =
        line("aaaa", 1, "s0", 0.5, 0.0).replace(r#""from_cache":false"#, r#""from_cache":true"#);
    let text = format!("{cached}\n{}\n", line("aaaa", 1, "s0", 0.5, 10.0));
    fs::write(store.path(), text).unwrap();

    let records = store.load().unwrap();
    assert!(records[0].from_cache);
    assert_eq!(records[0].wall_ms, 0.0);
    assert_eq!(records[1].compute_wall_ms, 10.0);

    let groups = store.compare().unwrap();
    assert_eq!(groups.len(), 1);
    assert_eq!(groups[0].runs, 2);
    assert!(groups[0].identical);
    assert_eq!(
        groups[0].compute_wall_ms, 10.0,
        "compare falls back past zero-wall serving records to a real cost"
    );
    let _ = fs::remove_file(store.path());
}

#[test]
fn compare_sums_fresh_compute_cost_and_falls_back_to_max_for_replays() {
    let store = ResultStore::open(temp_path("cost-agg"));
    // Two *fresh* engine runs of the same key (a re-run without --resume)
    // both paid real compute: the group's cost is their SUM, not the
    // first non-zero value.
    let text = format!(
        "{}\n{}\n",
        line("aaaa", 1, "s0", 0.5, 10.0),
        line("aaaa", 1, "s0", 0.5, 7.0),
    );
    fs::write(store.path(), text).unwrap();
    let groups = store.compare().unwrap();
    assert_eq!(groups.len(), 1);
    assert_eq!(
        groups[0].compute_wall_ms, 17.0,
        "every fresh run paid for its own engine run; the group cost sums them"
    );

    // All-replay group (e.g. two --resume passes): every record merely
    // preserves the original run's timing, so summing would double-count.
    // The group cost falls back to the max preserved value.
    let replay = |ms: f64| {
        line("bbbb", 2, "s1", 0.5, ms).replace(r#""from_store":false"#, r#""from_store":true"#)
    };
    fs::write(store.path(), format!("{}\n{}\n", replay(9.0), replay(9.0))).unwrap();
    let groups = store.compare().unwrap();
    assert_eq!(groups.len(), 1);
    assert_eq!(groups[0].runs, 2);
    assert_eq!(
        groups[0].compute_wall_ms, 9.0,
        "replays preserve one original run's cost; max, not sum, avoids double-counting"
    );
    let _ = fs::remove_file(store.path());
}

#[test]
fn held_lock_blocks_a_second_writer() {
    let store = ResultStore::open(temp_path("lock"));
    let _ = fs::remove_file(store.path());
    let _ = fs::remove_file(store.lock_path());
    fs::write(
        store.path(),
        format!("{}\n", line("aaaa", 1, "s0", 0.5, 1.0)),
    )
    .unwrap();

    // First writer takes the advisory lock…
    let guard = store.lock().expect("uncontended lock");
    assert!(
        store.lock_path().exists(),
        "lock file sits beside the store"
    );

    // …so a second handle (as another process would) cannot acquire it,
    // and its compaction fails after the bounded wait instead of racing
    // the holder's writes.
    let second = ResultStore::open(store.path());
    assert!(
        second.try_lock().unwrap().is_none(),
        "lock must be exclusive"
    );
    let err = second
        .lock_waiting(std::time::Duration::from_millis(50))
        .unwrap_err();
    assert!(
        matches!(err, scenarios::CampaignError::Locked(_)),
        "expected Locked, got {err:?}"
    );
    let msg = err.to_string();
    assert!(msg.contains(".lock"), "error names the lock file: {msg}");
    assert!(
        msg.contains(&format!("pid {}", std::process::id())),
        "error names the holder: {msg}"
    );

    // Releasing the guard unblocks the second writer.
    drop(guard);
    let summary = second.compact().expect("lock released, compaction runs");
    assert_eq!(summary.kept, 1);
    let _ = fs::remove_file(store.path());
    let _ = fs::remove_file(store.lock_path());
}

#[test]
fn leftover_lock_file_from_dead_holder_does_not_wedge_the_store() {
    // The mutual exclusion is a kernel advisory lock, not the lock file's
    // existence: a file left behind by a crashed (or long-gone) holder is
    // simply re-locked, so crash recovery never needs manual cleanup.
    let store = ResultStore::open(temp_path("stale-lock"));
    let _ = fs::remove_file(store.lock_path());
    fs::write(store.lock_path(), "424242").unwrap(); // nobody holds this
    let guard = store
        .lock_waiting(std::time::Duration::from_millis(30))
        .expect("an unheld lock file must be acquirable");
    // The new holder re-tags the file with its own PID.
    assert_eq!(
        fs::read_to_string(store.lock_path()).unwrap().trim(),
        std::process::id().to_string()
    );
    drop(guard);
    let _ = fs::remove_file(store.lock_path());
}

/// Injects the pre-compaction campaign position into a record line, the
/// way a sharded `campaign run` persists it.
fn line_at(pos: usize, digest: &str, seed: u64, scenario: &str, objective: f64) -> String {
    line(digest, seed, scenario, objective, 10.0).replace(
        "\"report\":{",
        &format!("\"report\":{{\"scenario_index\":{pos},\"scenario_total\":4,"),
    )
}

#[test]
fn merge_reconstructs_campaign_order_from_persisted_positions() {
    // Two "processes" partitioned one 4-scenario campaign by index
    // parity; each store holds its owned half in campaign order.
    let odd = ResultStore::open(temp_path("merge-odd"));
    fs::write(
        odd.path(),
        format!(
            "{}\n{}\n",
            line_at(1, "bbbb", 1, "s1", 0.6),
            line_at(3, "dddd", 1, "s3", 0.8),
        ),
    )
    .unwrap();
    let even = ResultStore::open(temp_path("merge-even"));
    fs::write(
        even.path(),
        format!(
            "{}\n{}\n",
            line_at(0, "aaaa", 1, "s0", 0.5),
            line_at(2, "cccc", 1, "s2", 0.7),
        ),
    )
    .unwrap();

    // Input order is the "wrong" one on purpose: the persisted positions,
    // not the argument order, dictate the merged order.
    let merged = ResultStore::open(temp_path("merge-out"));
    let summary = merged.merge_from(&[odd.clone(), even.clone()]).unwrap();
    assert_eq!(summary.inputs, 2);
    assert_eq!(summary.records, 4);
    assert_eq!(summary.kept, 4);
    assert_eq!(summary.dropped_duplicates, 0);
    assert!(summary.conflicts.is_empty());

    let records = merged.load().unwrap();
    let order: Vec<&str> = records.iter().map(|r| r.scenario.as_str()).collect();
    assert_eq!(order, ["s0", "s1", "s2", "s3"], "campaign order restored");
    // The merged store is compacted: positions are stripped like any
    // other volatile field.
    assert!(records[0]
        .raw
        .get("report")
        .unwrap()
        .get("scenario_index")
        .is_none());

    for store in [&odd, &even, &merged] {
        let _ = fs::remove_file(store.path());
    }
}

#[test]
fn merge_surfaces_conflicting_payloads_instead_of_silently_keeping_one() {
    // Both inputs claim the same (digest, seed); one "reproduction"
    // diverged. The merge must keep going (latest wins) but say so.
    let a = ResultStore::open(temp_path("conflict-a"));
    fs::write(
        a.path(),
        format!(
            "{}\n{}\n",
            line("aaaa", 1, "shared", 0.5, 10.0),
            line("bbbb", 2, "clean", 0.6, 11.0),
        ),
    )
    .unwrap();
    let b = ResultStore::open(temp_path("conflict-b"));
    fs::write(
        b.path(),
        format!(
            "{}\n{}\n",
            line("aaaa", 1, "shared", 0.9, 12.0), // diverged payload
            line("bbbb", 2, "clean", 0.6, 13.0),  // faithful reproduction
        ),
    )
    .unwrap();

    let merged = ResultStore::open(temp_path("conflict-out"));
    let summary = merged.merge_from(&[a.clone(), b.clone()]).unwrap();
    assert_eq!(summary.records, 4);
    assert_eq!(summary.kept, 2);
    assert_eq!(summary.dropped_duplicates, 2);
    assert_eq!(
        summary.conflicts.len(),
        1,
        "only the diverged group is a conflict: {:?}",
        summary.conflicts
    );
    assert!(
        summary.conflicts[0].contains("aaaa") && summary.conflicts[0].contains("shared"),
        "the conflict names the group: {}",
        summary.conflicts[0]
    );

    // Latest record won (input order breaks the no-position tie).
    let records = merged.load().unwrap();
    let shared = records.iter().find(|r| r.scenario == "shared").unwrap();
    assert_eq!(shared.best_objective, 0.9);

    for store in [&a, &b, &merged] {
        let _ = fs::remove_file(store.path());
    }
}

#[test]
fn second_writer_queues_behind_a_held_lock_instead_of_failing() {
    use std::time::{Duration, Instant};

    let store = ResultStore::open(temp_path("lock-queue"));
    let guard = store.try_lock().unwrap().unwrap();
    let path = store.path().to_path_buf();
    let waiter = std::thread::spawn(move || {
        let other = ResultStore::open(path);
        let started = Instant::now();
        let _guard = other
            .lock_waiting(Duration::from_secs(5))
            .expect("a queued writer must eventually acquire, not fail");
        started.elapsed()
    });
    // Hold the lock long enough that an error-on-contention implementation
    // would have failed, then release.
    std::thread::sleep(Duration::from_millis(200));
    drop(guard);
    let waited = waiter.join().unwrap();
    assert!(
        waited >= Duration::from_millis(150),
        "the second writer should have queued behind the holder, waited {waited:?}"
    );
    let _ = fs::remove_file(store.path());
    let _ = fs::remove_file(store.lock_path());
}
