//! Diffs two `report` outputs for performance regressions on the tracked
//! tables (E7 solver matrix, WP weak-pipeline table, the DET
//! determinization table, the KOBS one-arena ≈ₖ-sweep table, the OTF
//! protocol-corpus table, the DELTA mutation-path table, and the MEM
//! resident-bytes table).
//!
//! Usage:
//!
//! ```sh
//! cargo run --release -p ccs-bench --bin compare_report -- \
//!     crates/bench/baselines/report-e7-wp.txt report.txt \
//!     [--threshold 1.25] [--floor-ms 5.0]
//! ```
//!
//! Every timing row of the baseline's E7/WP sections is looked up in the
//! current report; a timing counts as a regression when the baseline value
//! is at least `floor-ms` (rows below the floor are measurement noise) and
//! the current value exceeds `baseline × threshold` (default 1.25, i.e. a
//! slowdown of more than 25%).  Exit code 1 signals regressions or rows
//! missing from the current report, so the scheduled CI job fails loudly.

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Timing columns of one tracked table row, keyed by a section-qualified
/// row identifier.
type Rows = BTreeMap<String, Vec<(String, f64)>>;

/// Which tracked section a report line belongs to, if any.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Section {
    None,
    E7,
    Wp,
    Det,
    Kobs,
    Otf,
    Delta,
    Mem,
}

/// Extracts the tracked tables from a report dump.
///
/// E7 rows are `family states edges naive ks-both ks-small` (timings in
/// the last three columns); WP rows are `family states pairs per-query
/// session speedup` (timings in columns 3–4, the speedup ratio is derived
/// and not compared); DET rows are `family states subsets notion rep-scan
/// det speedup` (timings in columns 4–5, the speedup derived); KOBS rows are
/// `family states subsets levels rep-bfs one-arena speedup` (timings in
/// columns 4–5, the speedup derived); OTF rows are `family product union
/// notion verdict otf-subsets full-subsets otf full` (subset counts ride
/// the ratio check like MEM bytes do — an exploration blow-up fails like a
/// slowdown — and the two timings close the row); DELTA rows are `family
/// states edits/b apply re-solve relayout%` (timings in columns 3–4, the
/// derived relayout share is not compared).
/// MEM rows come in two shapes: 5-token session rows `family states subsets
/// session-bytes arena-bytes` and 4-token CSR rows `family states edges
/// csr-bytes` — byte counts ride the same ratio check as timings, so a
/// memory blow-up trips the comparison exactly like a slowdown would.
fn parse_report(text: &str) -> Rows {
    let mut rows = Rows::new();
    let mut section = Section::None;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.starts_with("== ") {
            section = if trimmed.contains("E7:") {
                Section::E7
            } else if trimmed.contains("WP:") {
                Section::Wp
            } else if trimmed.contains("DET:") {
                Section::Det
            } else if trimmed.contains("KOBS:") {
                Section::Kobs
            } else if trimmed.contains("OTF:") {
                Section::Otf
            } else if trimmed.contains("DELTA:") {
                Section::Delta
            } else if trimmed.contains("MEM:") {
                Section::Mem
            } else {
                Section::None
            };
            continue;
        }
        let tokens: Vec<&str> = trimmed.split_whitespace().collect();
        let numeric = |t: &str| t.parse::<f64>().is_ok();
        match section {
            Section::E7 if tokens.len() == 6 && tokens[1..].iter().all(|t| numeric(t)) => {
                let key = format!("e7/{}/{}", tokens[0], tokens[1]);
                let cols = ["naive", "ks-both", "ks-small"];
                let timings = cols
                    .iter()
                    .zip(&tokens[3..6])
                    .map(|(name, t)| ((*name).to_owned(), t.parse().expect("checked numeric")))
                    .collect();
                rows.insert(key, timings);
            }
            Section::Wp if tokens.len() == 6 && tokens[1..].iter().all(|t| numeric(t)) => {
                let key = format!("wp/{}/{}/{}", tokens[0], tokens[1], tokens[2]);
                let cols = ["per-query", "session"];
                let timings = cols
                    .iter()
                    .zip(&tokens[3..5])
                    .map(|(name, t)| ((*name).to_owned(), t.parse().expect("checked numeric")))
                    .collect();
                rows.insert(key, timings);
            }
            Section::Det
                if tokens.len() == 7
                    && tokens[1..3].iter().all(|t| numeric(t))
                    && !numeric(tokens[3])
                    && tokens[4..].iter().all(|t| numeric(t)) =>
            {
                let key = format!("det/{}/{}/{}", tokens[0], tokens[3], tokens[1]);
                let cols = ["rep-scan", "det"];
                let timings = cols
                    .iter()
                    .zip(&tokens[4..6])
                    .map(|(name, t)| ((*name).to_owned(), t.parse().expect("checked numeric")))
                    .collect();
                rows.insert(key, timings);
            }
            Section::Kobs if tokens.len() == 7 && tokens[1..].iter().all(|t| numeric(t)) => {
                let key = format!("kobs/{}/{}", tokens[0], tokens[1]);
                let cols = ["rep-bfs", "one-arena"];
                let timings = cols
                    .iter()
                    .zip(&tokens[4..6])
                    .map(|(name, t)| ((*name).to_owned(), t.parse().expect("checked numeric")))
                    .collect();
                rows.insert(key, timings);
            }
            Section::Otf
                if tokens.len() == 9
                    && tokens[1..3].iter().all(|t| numeric(t))
                    && !numeric(tokens[3])
                    && !numeric(tokens[4])
                    && tokens[5..].iter().all(|t| numeric(t)) =>
            {
                let key = format!("otf/{}/{}", tokens[0], tokens[3]);
                let cols = ["otf-subsets", "full-subsets", "otf", "full"];
                let timings = cols
                    .iter()
                    .zip(&tokens[5..9])
                    .map(|(name, t)| ((*name).to_owned(), t.parse().expect("checked numeric")))
                    .collect();
                rows.insert(key, timings);
            }
            Section::Delta if tokens.len() == 6 && tokens[1..].iter().all(|t| numeric(t)) => {
                let key = format!("delta/{}/{}/{}", tokens[0], tokens[1], tokens[2]);
                let cols = ["apply", "re-solve"];
                let timings = cols
                    .iter()
                    .zip(&tokens[3..5])
                    .map(|(name, t)| ((*name).to_owned(), t.parse().expect("checked numeric")))
                    .collect();
                rows.insert(key, timings);
            }
            Section::Mem if tokens.len() == 5 && tokens[1..].iter().all(|t| numeric(t)) => {
                let key = format!("mem/{}/{}", tokens[0], tokens[1]);
                let cols = ["session", "arena"];
                let timings = cols
                    .iter()
                    .zip(&tokens[3..5])
                    .map(|(name, t)| ((*name).to_owned(), t.parse().expect("checked numeric")))
                    .collect();
                rows.insert(key, timings);
            }
            Section::Mem if tokens.len() == 4 && tokens[1..].iter().all(|t| numeric(t)) => {
                let key = format!("mem/{}/{}", tokens[0], tokens[1]);
                let timings = vec![(
                    "csr".to_owned(),
                    tokens[3].parse().expect("checked numeric"),
                )];
                rows.insert(key, timings);
            }
            _ => {}
        }
    }
    rows
}

struct Options {
    baseline: String,
    current: String,
    threshold: f64,
    floor_ms: f64,
}

fn parse_args() -> Result<Options, String> {
    let mut positional = Vec::new();
    let mut threshold = 1.25;
    let mut floor_ms = 5.0;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--threshold" => {
                threshold = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--threshold needs a number")?;
            }
            "--floor-ms" => {
                floor_ms = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or("--floor-ms needs a number")?;
            }
            _ => positional.push(arg),
        }
    }
    if positional.len() != 2 {
        return Err(
            "usage: compare_report <baseline> <current> [--threshold X] [--floor-ms Y]".to_owned(),
        );
    }
    let mut positional = positional.into_iter();
    Ok(Options {
        baseline: positional.next().expect("checked length"),
        current: positional.next().expect("checked length"),
        threshold,
        floor_ms,
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let read = |path: &str| {
        std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
    };
    let baseline = parse_report(&read(&opts.baseline));
    let current = parse_report(&read(&opts.current));
    if baseline.is_empty() {
        eprintln!("no tracked rows found in baseline {}", opts.baseline);
        return ExitCode::from(2);
    }

    let mut regressions = 0usize;
    let mut compared = 0usize;
    let mut missing = 0usize;
    for (key, base_timings) in &baseline {
        let Some(cur_timings) = current.get(key) else {
            println!("MISSING  {key}: row not present in current report");
            missing += 1;
            continue;
        };
        for ((col, base), (_, cur)) in base_timings.iter().zip(cur_timings) {
            if *base < opts.floor_ms {
                continue;
            }
            compared += 1;
            let ratio = cur / base;
            if ratio > opts.threshold {
                println!(
                    "REGRESSION  {key} [{col}]: {base:.2} -> {cur:.2} ({:.0}% worse)",
                    (ratio - 1.0) * 100.0
                );
                regressions += 1;
            }
        }
    }
    println!(
        "compared {compared} values over {} rows: {regressions} regression(s), {missing} missing \
         row(s) (threshold {:.0}%, floor {})",
        baseline.len(),
        (opts.threshold - 1.0) * 100.0,
        opts.floor_ms
    );
    if regressions > 0 || missing > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
ccs-equiv experiment report (wall-clock, release recommended)
host: cores=4

== E7: generalized partitioning on the CSR core — solver matrix per family ==
   (ks-both = both-halves baseline, ks-small = smaller-half upgrade)
  family   states      edges     naive ms   ks-both ms  ks-small ms
  random       64        160         1.00         2.00         3.00
   chain     1024       1023        90.00        12.00         6.00

== WP: weak pipeline — per-query free functions vs EquivSession batched ==
   (m pair queries: ...)
  family   states    pairs   per-query ms   session ms   speedup
 general      256       32         120.00         10.00      12.0

== DET: PSPACE-notion classification — shared subset automaton vs representative scan ==
   (rep-scan = one on-the-fly subset construction per (state, representative) pair; ...)
  family   states   subsets     notion   rep-scan ms     det ms   speedup
  blowup      256      7000   language        120.00      10.00      12.0

== KOBS: exact ≈k hierarchy sweep — one-arena signature refinement vs per-pair BFS ==
   (sweep k = 1..=4 on the ≈k strictness ladder; ...)
  family   states   subsets  levels   rep-bfs ms  one-arena ms   speedup
  ladder      276       265       4        60.00          8.00       7.5

== OTF: on-the-fly equivalence on the protocol corpus — peak explored vs materialized ==
   (system vs spec per determinizable notion; ...)
      family   product   union   notion  verdict  otf-subsets  full-subsets    otf ms   full ms
      abp-c2       864      47    trace       eq           18            95     12.00     40.00

== DELTA: mutation path — per-batch relayout + re-solve on the gadget stream ==
   (mutating_queries gadget stream, the session's path per batch: ...)
  family   states  edits/b   apply ms  re-solve ms  relayout %
 gadgets     1024        1       0.40         2.00        16.7

== MEM: resident bytes — honest capacity-based accounting per family ==
   (session = EquivSession::approx_resident_bytes after classify_all; ...)
  family   states   subsets    session B      arena B
  blowup      256       639      1400000       600000
  family   states      edges        csr B
  random     1024       3072       200000

== E8: strong equivalence, equivalent pairs (Theorem 3.1) ==
  states     check ms      classes
     256        10.00           17
";

    #[test]
    fn parses_only_tracked_sections() {
        let rows = parse_report(SAMPLE);
        assert_eq!(rows.len(), 9);
        assert_eq!(
            rows["delta/gadgets/1024/1"],
            vec![("apply".to_owned(), 0.4), ("re-solve".to_owned(), 2.0)]
        );
        assert_eq!(
            rows["otf/abp-c2/trace"],
            vec![
                ("otf-subsets".to_owned(), 18.0),
                ("full-subsets".to_owned(), 95.0),
                ("otf".to_owned(), 12.0),
                ("full".to_owned(), 40.0),
            ]
        );
        assert_eq!(
            rows["mem/blowup/256"],
            vec![
                ("session".to_owned(), 1_400_000.0),
                ("arena".to_owned(), 600_000.0)
            ]
        );
        assert_eq!(rows["mem/random/1024"], vec![("csr".to_owned(), 200_000.0)]);
        assert_eq!(
            rows["det/blowup/language/256"],
            vec![("rep-scan".to_owned(), 120.0), ("det".to_owned(), 10.0)]
        );
        assert_eq!(
            rows["kobs/ladder/276"],
            vec![("rep-bfs".to_owned(), 60.0), ("one-arena".to_owned(), 8.0)]
        );
        assert_eq!(
            rows["e7/chain/1024"],
            vec![
                ("naive".to_owned(), 90.0),
                ("ks-both".to_owned(), 12.0),
                ("ks-small".to_owned(), 6.0),
            ]
        );
        assert_eq!(
            rows["wp/general/256/32"],
            vec![
                ("per-query".to_owned(), 120.0),
                ("session".to_owned(), 10.0),
            ]
        );
        // The untracked E8 row is ignored.
        assert!(!rows.keys().any(|k| k.contains("e8")));
    }

    #[test]
    fn header_lines_are_not_rows() {
        let rows = parse_report("== E7: x ==\nfamily states edges a b c\n");
        assert!(rows.is_empty());
    }
}
