//! # xupd-schemes — the dynamic XML labelling schemes surveyed by the paper
//!
//! One module per scheme, every scheme implementing
//! [`xupd_labelcore::LabelingScheme`]:
//!
//! | Figure 7 row | module | label shape |
//! |---|---|---|
//! | XPath Accelerator \[9\] | [`containment::accel`] | `(pre, post, level)` |
//! | XRel \[30\] | [`containment::xrel`] | `(start, end, level)` regions with gaps |
//! | Sector \[23\] | [`containment::sector`] | nested integer sectors |
//! | QRS \[2\] | [`containment::qrs`] | floating-point intervals |
//! | DeweyID \[22\] | [`prefix::dewey`] | `1.2.3` integer paths |
//! | ORDPATH \[18\] | [`prefix::ordpath`] | odd/even careted paths `1.5.2.1` |
//! | DLN \[3\] | [`prefix::dln`] | fixed-width components with sublevels |
//! | LSDX \[7\] | [`prefix::lsdx`] | level + letter strings `2ab.b` |
//! | ImprovedBinary \[13\] | [`prefix::improved_binary`] | binary-string paths `011.0101` |
//! | QED \[14\] | [`prefix::qed`] | quaternary paths, separator-encoded |
//! | CDQS \[16\] | [`prefix::cdqs`] | compact quaternary paths |
//! | Vector \[27\] | [`vector`] | `(x, y)` gradient-ordered vectors |
//!
//! §6 extensions (not in Figure 7, implemented for the paper's announced
//! follow-up evaluation): CDBS ([`prefix::cdbs`]), Com-D ([`prefix::comd`]),
//! the Prime-number scheme ([`prime`]), DDE ([`dde`]) and the §4
//! orthogonality composition QED∘Containment ([`qcontainment`]: a
//! containment host over any order code, `[b,e)@level` regions, whose
//! QED instance is the roster row).
//!
//! [`registry()`] / [`registry_figure7`] expose the roster as plain data:
//! a `Vec<SchemeEntry>` of descriptors plus `fn() -> Box<dyn DynScheme>`
//! session factories, which is what the framework's parallel battery,
//! the benches and the differential tests iterate.

pub mod containment;
pub mod dde;
pub mod prefix;
pub mod prime;
pub mod qcontainment;
pub mod registry;
pub mod vector;

pub use registry::{registry, registry_figure7, SchemeEntry};

/// Names of the twelve Figure 7 schemes in the paper's row order.
pub const FIGURE7_ORDER: [&str; 12] = [
    "XPath Accelerator",
    "XRel",
    "Sector",
    "QRS",
    "DeweyID",
    "Ordpath",
    "DLN",
    "LSDX",
    "ImprovedBinary",
    "QED",
    "CDQS",
    "Vector",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure7_roster_matches_paper_order() {
        let names: Vec<&str> = registry_figure7().iter().map(|e| e.name()).collect();
        assert_eq!(names, FIGURE7_ORDER);
    }

    #[test]
    fn full_roster_extends_figure7() {
        let names: Vec<&str> = registry().iter().map(|e| e.name()).collect();
        assert_eq!(names.len(), 17);
        assert_eq!(&names[..12], &FIGURE7_ORDER);
        assert!(names.contains(&"CDBS"));
        assert!(names.contains(&"Com-D"));
        assert!(names.contains(&"Prime"));
        assert!(names.contains(&"DDE"));
        assert!(names.contains(&"QED∘Containment"));
    }

    #[test]
    fn descriptors_are_self_consistent() {
        for entry in registry() {
            let session = entry.session();
            let d = session.descriptor();
            assert_eq!(d.name, session.name());
            assert!(!d.citation.is_empty());
        }
    }
}
