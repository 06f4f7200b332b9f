//! Corpus distillation: a greedy minimal subset preserving coverage.
//!
//! Mega-campaigns accrete corpora where late cases subsume early ones: a
//! case saved for one fresh key may be fully covered by a later, richer
//! case. Distillation re-executes every saved case to recover its *full*
//! coverage set (the `.meta` files only record the keys that were new at
//! save time, which is useless for set cover), then greedily picks the
//! case covering the most still-uncovered keys until the union is
//! preserved. Ties break toward the lexicographically smallest file
//! name, so the result is deterministic.
//!
//! Re-execution is exact: saved sources are re-parsed and their stimuli
//! re-derived from the `(seed, index)` encoded in the file name — the
//! same derivation ([`stimuli_for`]) the campaign used.

use crate::corpus::Corpus;
use crate::coverage::CoverageMap;
use crate::exec::{run_case, CaseOutcome, ExecOptions};
use crate::gen::{stimuli_for, Case};
use std::fmt::Write as _;
use std::io;
use std::path::{Path, PathBuf};

/// Knobs for [`distill`].
#[derive(Debug, Clone)]
pub struct DistillOptions {
    /// The corpus to distill.
    pub corpus_dir: PathBuf,
    /// Design data width the corpus was fuzzed at (stimuli derivation
    /// depends on it).
    pub width: u32,
    /// Where to write the distilled corpus (`None` = report only).
    pub out_dir: Option<PathBuf>,
    /// Kernel-tick watchdog per configuration while re-executing.
    pub max_ticks: u64,
}

impl Default for DistillOptions {
    fn default() -> Self {
        DistillOptions {
            corpus_dir: PathBuf::new(),
            width: 16,
            out_dir: None,
            max_ticks: 5_000_000,
        }
    }
}

/// What [`distill`] produced.
#[derive(Debug)]
pub struct DistillReport {
    /// Deterministic human-readable log, ready to print.
    pub log: String,
    /// Kept case file names, in greedy pick order.
    pub kept: Vec<String>,
    /// Total saved cases examined.
    pub examined: usize,
    /// The preserved coverage union.
    pub coverage: CoverageMap,
}

/// One re-executed corpus case.
struct Candidate {
    name: String,
    case: Case,
    coverage: CoverageMap,
}

/// Distills a corpus to a greedy minimal subset with the same coverage
/// union.
///
/// # Errors
///
/// Returns the underlying I/O error for unreadable corpus files or an
/// unwritable output directory; a saved case that no longer parses
/// surfaces as [`io::ErrorKind::InvalidData`].
pub fn distill(opts: &DistillOptions) -> io::Result<DistillReport> {
    let corpus = Corpus::open(&opts.corpus_dir)?;
    let exec = ExecOptions {
        max_ticks: opts.max_ticks,
        ..ExecOptions::default()
    };

    let mut log = String::new();
    let mut candidates = Vec::new();
    for path in corpus.cases()? {
        let name = path
            .file_name()
            .and_then(|n| n.to_str())
            .unwrap_or_default()
            .to_string();
        let candidate = load_case(&path, opts.width)?;
        match run_case(&candidate, opts.width, &exec) {
            CaseOutcome::Pass { coverage } => candidates.push(Candidate {
                name,
                case: candidate,
                coverage,
            }),
            CaseOutcome::Divergence(d) => {
                // A diverging case is kept unconditionally: it is a
                // repro, not a coverage carrier.
                let _ = writeln!(log, "keep {name} (diverges: {:?})", d.kind);
                candidates.push(Candidate {
                    name,
                    case: candidate,
                    coverage: CoverageMap::new(),
                });
            }
            CaseOutcome::GeneratorError(e) => {
                let _ = writeln!(log, "drop {name} (no longer executes: {e})");
            }
        }
    }
    let examined = candidates.len();

    let mut target = CoverageMap::new();
    for candidate in &candidates {
        target.merge(candidate.coverage.clone());
    }
    let _ = writeln!(
        log,
        "fpgafuzz distill: {examined} cases, {} coverage keys",
        target.len()
    );

    // Greedy set cover: most still-uncovered keys first, ties to the
    // lexicographically smallest name (candidates arrive name-sorted, so
    // a strict `>` keeps the earliest maximum).
    let mut covered = CoverageMap::new();
    let mut kept: Vec<usize> = Vec::new();
    // Diverging repros (empty coverage) are always kept, first.
    for (i, candidate) in candidates.iter().enumerate() {
        if candidate.coverage.is_empty() {
            kept.push(i);
        }
    }
    while covered.len() < target.len() {
        let mut best: Option<(usize, usize)> = None;
        for (i, candidate) in candidates.iter().enumerate() {
            if kept.contains(&i) {
                continue;
            }
            let gain = candidate
                .coverage
                .iter()
                .filter(|k| !covered.contains(k))
                .count();
            if gain > 0 && best.is_none_or(|(_, g)| gain > g) {
                best = Some((i, gain));
            }
        }
        let Some((i, gain)) = best else { break };
        covered.merge(candidates[i].coverage.clone());
        let _ = writeln!(log, "keep {} (+{gain} keys)", candidates[i].name);
        kept.push(i);
    }
    kept.sort_unstable();
    let _ = writeln!(
        log,
        "distilled: {}/{examined} cases preserve {} keys",
        kept.len(),
        covered.len()
    );

    if let Some(out_dir) = &opts.out_dir {
        let out = Corpus::open(out_dir)?;
        let mut incremental = CoverageMap::new();
        for &i in &kept {
            let candidate = &candidates[i];
            let fresh: Vec<String> = candidate
                .coverage
                .iter()
                .filter(|k| !incremental.contains(k))
                .map(String::from)
                .collect();
            incremental.merge(candidate.coverage.clone());
            out.save_case(&candidate.case, &fresh)?;
        }
        out.save_coverage(&covered)?;
        let _ = writeln!(log, "wrote {} cases to {}", kept.len(), out_dir.display());
    }

    Ok(DistillReport {
        kept: kept.iter().map(|&i| candidates[i].name.clone()).collect(),
        examined,
        coverage: covered,
        log,
    })
}

/// Reconstructs a [`Case`] from a saved `seedS-caseI.src` file: the
/// program from the source text, the stimuli from the name-encoded
/// `(seed, index)` — exactly what the campaign executed.
fn load_case(path: &Path, width: u32) -> io::Result<Case> {
    let invalid = |message: String| io::Error::new(io::ErrorKind::InvalidData, message);
    let stem = path
        .file_stem()
        .and_then(|s| s.to_str())
        .ok_or_else(|| invalid(format!("{}: unreadable file name", path.display())))?;
    let bad_stem = || invalid(format!("{}: expected seedS-caseI.src", path.display()));
    let (seed_part, case_part) = stem.split_once('-').ok_or_else(bad_stem)?;
    let seed: u64 = seed_part
        .strip_prefix("seed")
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad_stem)?;
    let index: u64 = case_part
        .strip_prefix("case")
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad_stem)?;
    let source = std::fs::read_to_string(path)?;
    let program = nenya::lang::parse(&source)
        .map_err(|e| invalid(format!("{}: {e}", path.display())))?;
    let stimuli = stimuli_for(&program.mems, seed, index, width);
    Ok(Case {
        seed,
        index,
        source,
        program,
        stimuli,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{run_campaign_sharded, CampaignOptions, ShardedCampaignOptions};

    #[test]
    fn distilled_corpus_preserves_the_coverage_union() {
        let dir = std::env::temp_dir().join("fpgafuzz_distill_test");
        let _ = std::fs::remove_dir_all(&dir);
        let report = run_campaign_sharded(
            &CampaignOptions {
                seed: 7,
                cases: 30,
                corpus_dir: Some(dir.clone()),
                ..CampaignOptions::default()
            },
            &ShardedCampaignOptions::default(),
        )
        .unwrap()
        .report;
        assert!(report.new_keys > 0, "campaign saved nothing to distill");

        let out = dir.join("distilled");
        let distilled = distill(&DistillOptions {
            corpus_dir: dir.clone(),
            out_dir: Some(out.clone()),
            ..DistillOptions::default()
        })
        .unwrap();
        assert!(!distilled.kept.is_empty());
        assert!(distilled.kept.len() <= distilled.examined);

        // The written corpus's coverage file equals the source corpus's:
        // the whole union is kept and no key is invented.
        let coverage =
            |corpus: &Path| std::fs::read_to_string(corpus.join("coverage.txt")).unwrap();
        assert_eq!(coverage(&out), coverage(&dir));

        // The written subset re-distills to itself: same union, and no
        // case is droppable.
        let again = distill(&DistillOptions {
            corpus_dir: out,
            out_dir: None,
            ..DistillOptions::default()
        })
        .unwrap();
        assert_eq!(again.coverage, distilled.coverage);
        assert_eq!(again.kept.len(), distilled.kept.len());

        // Deterministic: identical up to the `wrote N cases` line that
        // only the `--out` invocation appends.
        let repeat = distill(&DistillOptions {
            corpus_dir: dir,
            out_dir: None,
            ..DistillOptions::default()
        })
        .unwrap();
        let sans_wrote: String = distilled
            .log
            .lines()
            .filter(|line| !line.starts_with("wrote "))
            .map(|line| format!("{line}\n"))
            .collect();
        assert_eq!(repeat.log, sans_wrote);
        let _ = std::fs::remove_dir_all(std::env::temp_dir().join("fpgafuzz_distill_test"));
    }
}
