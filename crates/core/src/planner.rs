//! Dynamic extraction planning — the `next(E, g)` of §2.2/§3.
//!
//! "Xtract dequeues each group and identifies an initial set of extractors
//! to be applied ... Based on the results, Xtract determines if additional
//! steps should be added to the extraction plan."
//!
//! An [`ExtractionPlan`] is a per-family work list: extractors still to
//! run, extractors completed, and the type discoveries that extended the
//! plan. Termination is guaranteed: an extractor kind is never scheduled
//! twice for the same family, and the kind set is finite — property-tested
//! below.

use std::collections::BTreeSet;
use xtract_types::{ExtractorKind, Family, FileType};

/// The evolving plan for one family.
///
/// ```
/// use xtract_core::ExtractionPlan;
/// use xtract_types::{ExtractorKind, FileType};
///
/// let mut plan = ExtractionPlan::fixed(&[ExtractorKind::Keyword]);
/// assert_eq!(plan.next(), Some(ExtractorKind::Keyword));
/// // The keyword extractor discovers tabular content (§5.8.2)...
/// plan.complete(ExtractorKind::Keyword, &[("/f.txt".into(), FileType::Tabular)]);
/// // ...so tabular + null-value are appended dynamically.
/// assert_eq!(plan.next(), Some(ExtractorKind::Tabular));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtractionPlan {
    pending: BTreeSet<ExtractorKind>,
    completed: BTreeSet<ExtractorKind>,
    /// Files whose type was refined mid-plan: `(path, new type)`.
    pub discoveries: Vec<(String, FileType)>,
}

impl ExtractionPlan {
    /// Seeds the plan from a family's crawl-time type hints (§3: "an
    /// initial set of extractors ... as identified by the crawler's
    /// grouping function").
    pub fn for_family(family: &Family) -> Self {
        let mut pending = BTreeSet::new();
        for file in &family.files {
            pending.extend(ExtractorKind::initial_plan(file.hint).iter().copied());
        }
        Self {
            pending,
            completed: BTreeSet::new(),
            discoveries: Vec::new(),
        }
    }

    /// Seeds a plan from explicit kinds (used by the scaling benches that
    /// pin a single extractor).
    pub fn fixed(kinds: &[ExtractorKind]) -> Self {
        Self {
            pending: kinds.iter().copied().collect(),
            completed: BTreeSet::new(),
            discoveries: Vec::new(),
        }
    }

    /// The next extractor to run, or `None` when the plan is complete
    /// (`next(E, g) = ⊥`, §2.2).
    pub fn next(&self) -> Option<ExtractorKind> {
        self.pending.iter().next().copied()
    }

    /// Marks `kind` finished and folds in the type discoveries its output
    /// reported, extending the plan with any extractor not yet run.
    pub fn complete(&mut self, kind: ExtractorKind, discovered: &[(String, FileType)]) {
        self.pending.remove(&kind);
        self.completed.insert(kind);
        for (path, t) in discovered {
            self.discoveries.push((path.clone(), *t));
            for e in ExtractorKind::initial_plan(*t) {
                if !self.completed.contains(e) {
                    self.pending.insert(*e);
                }
            }
        }
    }

    /// True when nothing remains.
    pub fn is_done(&self) -> bool {
        self.pending.is_empty()
    }

    /// Extractors already run.
    pub fn completed(&self) -> impl Iterator<Item = ExtractorKind> + '_ {
        self.completed.iter().copied()
    }

    /// Number of extractor invocations so far plus pending — total plan
    /// length (Table 3: "each extraction plan for a file may contain up to
    /// five extractors").
    pub fn len(&self) -> usize {
        self.pending.len() + self.completed.len()
    }

    /// True if the plan never had work.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use xtract_types::{EndpointId, FamilyId, FileRecord, Group, GroupId};

    fn family(hints: &[FileType]) -> Family {
        let files: Vec<FileRecord> = hints
            .iter()
            .enumerate()
            .map(|(i, t)| FileRecord::new(format!("/f{i}"), 1, EndpointId::new(0), *t))
            .collect();
        let g = Group::new(
            GroupId::new(0),
            files.iter().map(|f| f.path.clone()).collect(),
        );
        Family::new(FamilyId::new(0), files, vec![g], EndpointId::new(0))
    }

    #[test]
    fn initial_plan_unions_file_types() {
        let plan = ExtractionPlan::for_family(&family(&[FileType::Tabular, FileType::FreeText]));
        let kinds: BTreeSet<_> = std::iter::from_fn({
            let mut p = plan.clone();
            move || {
                let k = p.next()?;
                p.complete(k, &[]);
                Some(k)
            }
        })
        .collect();
        assert!(kinds.contains(&ExtractorKind::Keyword));
        assert!(kinds.contains(&ExtractorKind::Tabular));
        assert!(kinds.contains(&ExtractorKind::NullValue));
    }

    #[test]
    fn discovery_extends_plan() {
        let mut plan = ExtractionPlan::for_family(&family(&[FileType::FreeText]));
        assert_eq!(plan.next(), Some(ExtractorKind::Keyword));
        plan.complete(
            ExtractorKind::Keyword,
            &[("/f0".to_string(), FileType::Tabular)],
        );
        // Tabular + NullValue appended (§5.8.2's dual-pipeline files).
        let mut rest = Vec::new();
        while let Some(k) = plan.next() {
            rest.push(k);
            plan.complete(k, &[]);
        }
        assert_eq!(rest, vec![ExtractorKind::Tabular, ExtractorKind::NullValue]);
        assert!(plan.is_done());
        assert_eq!(plan.discoveries.len(), 1);
    }

    #[test]
    fn completed_extractor_is_never_rescheduled() {
        let mut plan = ExtractionPlan::fixed(&[ExtractorKind::Keyword]);
        plan.complete(
            ExtractorKind::Keyword,
            // Discovery pointing back at free text must not re-add Keyword.
            &[("/f0".to_string(), FileType::FreeText)],
        );
        assert!(plan.is_done(), "keyword was rescheduled: {plan:?}");
    }

    #[test]
    fn plan_len_counts_both_sides() {
        let mut plan = ExtractionPlan::fixed(&[ExtractorKind::Keyword, ExtractorKind::Bert]);
        assert_eq!(plan.len(), 2);
        let k = plan.next().unwrap();
        plan.complete(k, &[]);
        assert_eq!(plan.len(), 2);
        assert_eq!(plan.completed().count(), 1);
    }

    proptest! {
        /// Whatever discoveries extractors report, a plan terminates in at
        /// most |ExtractorKind::ALL| steps.
        #[test]
        fn plans_always_terminate(
            hints in proptest::collection::vec(0usize..FileType::ALL.len(), 1..6),
            discoveries in proptest::collection::vec(0usize..FileType::ALL.len(), 0..32),
        ) {
            let types: Vec<FileType> = hints.iter().map(|&i| FileType::ALL[i]).collect();
            let mut plan = ExtractionPlan::for_family(&family(&types));
            let mut disc_iter = discoveries.into_iter();
            let mut steps = 0;
            while let Some(k) = plan.next() {
                steps += 1;
                prop_assert!(steps <= ExtractorKind::ALL.len(), "non-terminating plan");
                // Report 0–2 discoveries per completion.
                let d: Vec<(String, FileType)> = disc_iter
                    .by_ref()
                    .take(2)
                    .map(|i| ("/x".to_string(), FileType::ALL[i]))
                    .collect();
                plan.complete(k, &d);
            }
            prop_assert!(plan.is_done());
        }
    }
}
