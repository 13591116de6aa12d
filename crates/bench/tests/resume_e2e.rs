//! End-to-end resume: a journaled suite run interrupted at any point —
//! between appends or mid-append — resumes to a report byte-identical
//! to an uninterrupted run, re-executing only the missing tasks.

use csd_bench::suite::{journal_meta, run_suite, SuiteConfig};
use csd_telemetry::{Journal, RunJournal};
use std::path::{Path, PathBuf};
use std::sync::Mutex;

const SEED: u64 = 0xC5D_2018;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("csd-resume-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create temp dir");
    dir
}

/// Counts frames (meta + task records) in a journal file.
fn frames(path: &Path) -> Vec<Vec<u8>> {
    Journal::open(path).expect("reopen journal").records
}

#[test]
fn resume_from_any_interruption_matches_uninterrupted_bytes() {
    let cfg = SuiteConfig::quick(SEED, 2);
    let baseline = run_suite(&cfg, None).unwrap().json.pretty();
    let dir = temp_dir("suite");
    let meta = journal_meta(&cfg, None);

    // A journaled run from scratch produces the same bytes and leaves
    // one frame per task (plus the meta frame) behind.
    let full = dir.join("full.journal");
    let rj = RunJournal::open(&full, &meta).expect("create journal");
    assert!(rj.replayed().is_empty());
    let report = run_suite(&cfg, Some(&Mutex::new(rj))).expect("journaled run");
    assert_eq!(report.json.pretty(), baseline, "journaled run bytes");
    let all = frames(&full);
    let tasks = all.len() - 1;
    assert!(tasks > 1, "quick grid must have more than one task");

    // Crash after k completed appends: rebuild the journal prefix a
    // clean shutdown at that point would have left, resume, cmp.
    for k in [1, tasks / 2, tasks - 1] {
        let path = dir.join(format!("cut-{k}.journal"));
        let mut j = Journal::create(&path).expect("create cut journal");
        for rec in all.iter().take(1 + k) {
            j.append(rec).expect("append prefix frame");
        }
        drop(j);
        let rj = RunJournal::open(&path, &meta).expect("reopen cut journal");
        assert_eq!(rj.replayed().len(), k, "replayed count after {k} appends");
        let report = run_suite(&cfg, Some(&Mutex::new(rj))).expect("resumed run");
        assert_eq!(report.json.pretty(), baseline, "resume after {k} tasks");
        // Only the remainder re-ran: k replayed frames + (tasks - k)
        // fresh appends. A journal that re-ran replayed tasks would
        // hold more.
        assert_eq!(frames(&path).len(), 1 + tasks, "no task journaled twice");
    }

    // Crash *mid-append*: chop arbitrary byte counts off the complete
    // journal, as a kill during the final write would. The torn tail is
    // truncated on reopen and the resume still lands on the same bytes.
    let bytes = std::fs::read(&full).expect("read full journal");
    for cut in [1usize, 7, 13] {
        let path = dir.join(format!("torn-{cut}.journal"));
        std::fs::write(&path, &bytes[..bytes.len() - cut]).expect("write torn journal");
        let rj = RunJournal::open(&path, &meta).expect("reopen torn journal");
        assert!(rj.truncated() > 0, "a mid-frame cut must report truncation");
        assert!(rj.replayed().len() < tasks, "the torn record must be gone");
        let report = run_suite(&cfg, Some(&Mutex::new(rj))).expect("resumed run");
        assert_eq!(
            report.json.pretty(),
            baseline,
            "resume after {cut}-byte tear"
        );
    }

    let _ = std::fs::remove_dir_all(&dir);
}
