//! # xupd-labelcore — label algebra primitives and the scheme abstraction
//!
//! Everything the twelve surveyed labelling schemes share lives here:
//!
//! * the [`LabelingScheme`] trait — bulk labelling, per-update label
//!   assignment (reporting any forced relabels, which is what the
//!   *Persistent Labels* property measures), and the structural-relation
//!   algebra evaluable from labels alone (*XPath Evaluations*, *Level
//!   Encoding*, *Document Order*);
//! * [`SchemeStats`] — instrumentation counters (divisions performed,
//!   recursive passes, relabelled nodes, overflow events, label bits) that
//!   the framework crate's empirical checkers read;
//! * the property vocabulary of the paper's §5.1 ([`Property`],
//!   [`Compliance`], [`OrderKind`], [`EncodingRep`]) and the per-scheme
//!   [`SchemeDescriptor`];
//! * code algebras reused by several schemes:
//!   [`BitString`] and the ImprovedBinary/CDBS *middle code* construction
//!   ([`bitstring`]), quaternary QED codes ([`quaternary`]), Stern–Brocot
//!   vector codes ordered by gradient ([`vectorcode`]), a UTF-8-style
//!   varint codec ([`varint`]) and a small arbitrary-precision unsigned
//!   integer ([`biguint`]) for the prime-number scheme.

pub mod biguint;
pub mod bitstring;
pub mod label;
pub mod properties;
pub mod qstorage;
pub mod quaternary;
pub mod scheme;
pub mod session;
pub mod smallbuf;
pub mod stats;
pub mod varint;
pub mod vectorcode;

pub use bitstring::BitString;
pub use label::{Label, Labeling};
pub use properties::{Compliance, EncodingRep, OrderKind, Property, SchemeDescriptor};
pub use quaternary::QCode;
pub use scheme::{InsertReport, LabelingScheme, Relation};
pub use session::{DynScheme, SchemeSession, SessionMut, SessionParts};
pub use smallbuf::{SmallBuf, SmallVec};
pub use stats::SchemeStats;
pub use vectorcode::VectorCode;
