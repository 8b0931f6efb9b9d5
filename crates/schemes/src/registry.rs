//! The object-safe scheme registry.
//!
//! [`registry`] / [`registry_figure7`] return the scheme roster as plain
//! data: each [`SchemeEntry`] carries the static [`SchemeDescriptor`]
//! plus a `fn() -> Box<dyn DynScheme>` factory producing a fresh
//! session. Factories are `fn` pointers — `Copy + Send + Sync` — so a
//! parallel battery (`xupd_exec::par_map`) can hand one entry to each
//! worker and let the worker construct its scheme locally; the boxed
//! sessions themselves never cross threads.
//!
//! [`with_scheme_roster!`](crate::with_scheme_roster) is the single
//! source of truth for the roster; downstream crates (e.g. the encoding
//! crate's document registry) invoke it with their own callback macro to
//! generate per-scheme code without this crate having to know about
//! their types.

use xupd_labelcore::{DynScheme, SchemeDescriptor, SchemeSession};

/// One roster row: the scheme's static self-description and a factory
/// for fresh, empty sessions over it.
#[derive(Clone)]
pub struct SchemeEntry {
    /// The scheme's declared Figure 7 row and metadata.
    pub descriptor: SchemeDescriptor,
    /// Build a fresh session (scheme + empty labelling).
    pub factory: fn() -> Box<dyn DynScheme>,
}

impl std::fmt::Debug for SchemeEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SchemeEntry")
            .field("descriptor", &self.descriptor)
            .finish_non_exhaustive()
    }
}

impl SchemeEntry {
    /// The scheme's Figure 7 name.
    pub fn name(&self) -> &'static str {
        self.descriptor.name
    }

    /// A fresh session over a new scheme instance.
    pub fn session(&self) -> Box<dyn DynScheme> {
        (self.factory)()
    }
}

/// Expand a callback macro with the roster's fully-qualified scheme
/// types. `$crate`-prefixed paths keep the expansion valid from any
/// crate:
///
/// ```ignore
/// macro_rules! count { ($($ty:ty),+ $(,)?) => { [$(stringify!($ty)),+].len() } }
/// let n = xupd_schemes::with_scheme_roster!(figure7, count); // 12
/// ```
///
/// The first argument selects the roster: `figure7` (the paper's twelve
/// rows, in row order) or `all` (Figure 7 plus the §6 extensions, 17
/// schemes).
#[macro_export]
macro_rules! with_scheme_roster {
    (figure7, $cb:ident) => {
        $cb! {
            $crate::containment::accel::XPathAccelerator,
            $crate::containment::xrel::XRel,
            $crate::containment::sector::Sector,
            $crate::containment::qrs::Qrs,
            $crate::prefix::dewey::DeweyId,
            $crate::prefix::ordpath::OrdPath,
            $crate::prefix::dln::Dln,
            $crate::prefix::lsdx::Lsdx,
            $crate::prefix::improved_binary::ImprovedBinary,
            $crate::prefix::qed::Qed,
            $crate::prefix::cdqs::Cdqs,
            $crate::vector::VectorScheme,
        }
    };
    (all, $cb:ident) => {
        $cb! {
            $crate::containment::accel::XPathAccelerator,
            $crate::containment::xrel::XRel,
            $crate::containment::sector::Sector,
            $crate::containment::qrs::Qrs,
            $crate::prefix::dewey::DeweyId,
            $crate::prefix::ordpath::OrdPath,
            $crate::prefix::dln::Dln,
            $crate::prefix::lsdx::Lsdx,
            $crate::prefix::improved_binary::ImprovedBinary,
            $crate::prefix::qed::Qed,
            $crate::prefix::cdqs::Cdqs,
            $crate::vector::VectorScheme,
            $crate::prefix::cdbs::Cdbs,
            $crate::prefix::comd::ComD,
            $crate::prime::Prime,
            $crate::dde::Dde,
            $crate::qcontainment::QedContainment,
        }
    };
}

macro_rules! entries_vec {
    ($($ty:ty),+ $(,)?) => {
        vec![
            $(
                SchemeEntry {
                    descriptor: <$ty>::new().descriptor(),
                    factory: || Box::new(SchemeSession::new(<$ty>::new())) as Box<dyn DynScheme>,
                },
            )+
        ]
    };
}

/// The twelve Figure 7 schemes, in the paper's row order.
pub fn registry_figure7() -> Vec<SchemeEntry> {
    use xupd_labelcore::LabelingScheme;
    with_scheme_roster!(figure7, entries_vec)
}

/// Every implemented scheme: Figure 7 roster plus the §6 extensions
/// (CDBS, Com-D, Prime, DDE, QED∘Containment), in a stable order.
pub fn registry() -> Vec<SchemeEntry> {
    use xupd_labelcore::LabelingScheme;
    with_scheme_roster!(all, entries_vec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FIGURE7_ORDER;

    #[test]
    fn figure7_registry_matches_paper_order() {
        let names: Vec<&str> = registry_figure7().iter().map(|e| e.name()).collect();
        assert_eq!(names, FIGURE7_ORDER);
    }

    #[test]
    fn full_registry_extends_figure7() {
        let reg = registry();
        let names: Vec<&str> = reg.iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), 17);
        assert_eq!(&names[..12], &FIGURE7_ORDER);
        for extra in ["CDBS", "Com-D", "Prime", "DDE", "QED∘Containment"] {
            assert!(names.contains(&extra), "missing {extra}");
        }
        assert_eq!(reg.iter().filter(|e| e.descriptor.in_figure7).count(), 12);
    }

    #[test]
    fn factories_build_matching_sessions() {
        for entry in registry() {
            let session = entry.session();
            assert_eq!(session.name(), entry.name());
            assert_eq!(session.descriptor().name, entry.descriptor.name);
            assert_eq!(session.labeled_len(), 0, "factory sessions start empty");
        }
    }
}
