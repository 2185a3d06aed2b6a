//! Tests of the harness's own logic: percentiles, seeds, reference
//! checks and the span fold.

use parvc_obs::{Lane, SpanRecord, TelemetrySnapshot};
use perfbench::common::derive_seed;
use perfbench::refs::{fingerprint, table_line, RefBook, Refs};
use perfbench::solve::{Answer, Op};
use perfbench::stats::{median, percentile, samples_beyond};
use perfbench::trace::{SelfTimes, Tracer};

#[test]
fn percentile_is_nearest_rank() {
    let v: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&v, 50.0), Some(50.0));
    assert_eq!(percentile(&v, 90.0), Some(90.0));
    assert_eq!(percentile(&v, 99.0), Some(99.0));
    assert_eq!(percentile(&v, 100.0), Some(100.0));
    // Order does not matter, and every answer is an observed sample.
    let shuffled = [7.0, 1.0, 5.0, 3.0];
    assert_eq!(percentile(&shuffled, 50.0), Some(3.0));
    assert_eq!(percentile(&shuffled, 75.0), Some(5.0));
    assert_eq!(percentile(&shuffled, 76.0), Some(7.0));
    assert_eq!(percentile(&[4.2], 99.0), Some(4.2));
    assert_eq!(percentile(&[], 50.0), None);
}

#[test]
fn tail_sample_counts() {
    assert_eq!(samples_beyond(100, 90.0), 10);
    assert_eq!(samples_beyond(1000, 99.0), 10);
    assert_eq!(samples_beyond(150, 99.0), 1);
    assert_eq!(samples_beyond(5, 50.0), 2);
    assert_eq!(samples_beyond(0, 90.0), 0);
}

#[test]
fn median_of_odd_and_even() {
    assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
    assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    assert_eq!(median(&[]), None);
}

#[test]
fn seeds_are_deterministic_and_distinct() {
    assert_eq!(derive_seed(7, "gnp", 3), derive_seed(7, "gnp", 3));
    assert_ne!(derive_seed(7, "gnp", 3), derive_seed(8, "gnp", 3));
    assert_ne!(derive_seed(7, "gnp", 3), derive_seed(7, "phat", 3));
    assert_ne!(derive_seed(7, "gnp", 3), derive_seed(7, "gnp", 4));
}

#[test]
fn answers_are_judged_against_the_reference() {
    let mvc = |value| Answer {
        op: Op::Mvc(0),
        ms: 1.0,
        value,
        found: true,
        locally_ok: true,
    };
    assert!(mvc(12).matches(12));
    assert!(!mvc(13).matches(12), "a larger cover is not optimal");
    let pvc = |k, found| Answer {
        op: Op::Pvc(0, k),
        ms: 1.0,
        value: 0,
        found,
        locally_ok: true,
    };
    assert!(pvc(11, false).matches(12), "k = OPT-1 must be refuted");
    assert!(!pvc(11, true).matches(12), "no cover of size OPT-1 exists");
    assert!(!pvc(10, false).matches(12), "k must be OPT-1");
    let mut bad = mvc(12);
    bad.locally_ok = false;
    assert!(!bad.matches(12), "an invalid cover fails whatever its size");
}

#[test]
fn reference_tables_round_trip() {
    let g = parvc_graph::gen::petersen();
    let dir = std::env::temp_dir().join(format!("perfbench-refs-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.tsv");
    let text = format!("# comment\n{}\n", table_line("petersen", &g, false, 6));
    std::fs::write(&path, text).unwrap();
    let refs = Refs::load(&path).unwrap();
    assert_eq!(refs.lookup("petersen", &g, false), Ok(6));
    assert!(
        refs.lookup("petersen", &g, true).is_err(),
        "objectives are kept apart"
    );
    assert!(
        refs.lookup("other", &g, false).is_err(),
        "rows are keyed by label"
    );
    let other = parvc_graph::gen::spec::parse("gnp:10:0.5@1")
        .unwrap()
        .unwrap();
    assert!(
        refs.lookup("petersen", &other, false).is_err(),
        "a row for another graph does not apply"
    );
    std::fs::write(&path, "zz\tcardinality\t6\tx\n").unwrap();
    assert!(Refs::load(&path).is_err(), "a corrupt table is an error");
    std::fs::write(&path, "# only a comment\n").unwrap();
    assert!(Refs::load(&path).is_err(), "an empty table is an error");
    assert!(
        Refs::load(&dir.join("missing.tsv")).is_err(),
        "a missing table is an error"
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_table_is_strict_and_never_re_solved() {
    let g = parvc_graph::gen::petersen();
    let dir = std::env::temp_dir().join(format!("perfbench-book-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("t.tsv");
    std::fs::write(&path, format!("{}\n", table_line("petersen", &g, false, 6))).unwrap();
    let mut book = RefBook::new(Some(Refs::load(&path).unwrap()), false);
    assert_eq!(book.opt("petersen", &g, false), Some(6));
    assert_eq!(book.opt("unlisted", &g, false), None, "a miss is a failure");
    assert_eq!((book.misses, book.solved), (1, 0));
    // A graph outside the workload is always re-solved.
    assert_eq!(book.probe_opt("petersen edited", &g, false), Some(6));
    assert_eq!(book.solved, 1);
    // Without a table the book re-solves, and remembers the answer.
    let mut open = RefBook::new(None, false);
    assert_eq!(open.opt("petersen", &g, false), Some(6));
    assert_eq!(open.opt("petersen", &g, false), Some(6));
    assert_eq!(open.solved, 1);
    assert!(open.confirm("petersen", &g, false, Some(6)));
    assert!(!open.confirm("petersen", &g, false, Some(5)));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fingerprints_ignore_vertex_names() {
    let g = parvc_graph::CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]).unwrap();
    let renamed = parvc_graph::CsrGraph::from_edges(4, &[(3, 0), (0, 2), (2, 1)]).unwrap();
    let star = parvc_graph::CsrGraph::from_edges(4, &[(0, 1), (0, 2), (0, 3)]).unwrap();
    assert_eq!(fingerprint(&g), fingerprint(&renamed));
    assert_ne!(fingerprint(&g), fingerprint(&star));
    let weighted = g.clone().with_weights(vec![1, 2, 1, 1]).unwrap();
    assert_ne!(fingerprint(&g), fingerprint(&weighted));
}

fn span(cat: &'static str, name: &'static str, track: u32, start: u64, dur: u64) -> SpanRecord {
    SpanRecord {
        cat,
        name,
        track,
        lane: Lane::Wall,
        start_us: start,
        dur_us: dur,
        arg: 0,
        instant: false,
    }
}

#[test]
fn self_time_subtracts_direct_children() {
    let snap = TelemetrySnapshot {
        spans: vec![
            span("engine", "block", 1, 0, 100),
            span("engine", "reduce", 1, 10, 30),
            span("dispatch", "inline", 1, 15, 10),
            span("engine", "branch", 1, 50, 20),
            // Another thread's span overlapping in time is not a child.
            span("engine", "block", 2, 5, 50),
        ],
        dropped_spans: 3,
        ..Default::default()
    };
    let mut st = SelfTimes::default();
    st.fold(&snap);
    assert_eq!(st.dropped_spans, 3);
    assert_eq!(st.count("engine/block"), 2);
    assert_eq!(st.total_ms("engine/block"), 0.150);
    let f = |k: (&str, &str)| {
        *st.by_name
            .iter()
            .find(|(key, _)| key.0 == k.0 && key.1 == k.1)
            .unwrap()
            .1
    };
    // Block on track 1: 100 − (30 + 20); block on track 2: 50.
    assert_eq!(f(("engine", "block")).self_us, 50 + 50);
    assert_eq!(f(("engine", "reduce")).self_us, 20);
    assert_eq!(f(("dispatch", "inline")).self_us, 10);
    assert_eq!(f(("engine", "branch")).self_us, 20);
}

#[test]
fn harness_spans_nest_and_total() {
    let mut tr = Tracer::new(std::time::Instant::now());
    let outer = tr.begin("outer");
    tr.set_op(7);
    let x = tr.call("inner", || 41 + 1);
    tr.end_as(outer, "renamed");
    assert_eq!(x, 42);
    assert_eq!(tr.len(), 2);
    assert_eq!(tr.durations_ms("inner").len(), 1);
    assert!(tr.total_ms("renamed") >= tr.total_ms("inner"));
    assert!(tr.durations_ms("outer").is_empty());
}
