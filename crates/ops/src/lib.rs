//! # lob-ops — the log operation model
//!
//! This crate defines every form of log operation used in the reproduction of
//! Lomet's "High Speed On-line Backup When Using Logical Log Operations"
//! (SIGMOD 2000), mirroring Table 1 of the paper:
//!
//! | Paper             | Here                                                  |
//! |-------------------|-------------------------------------------------------|
//! | `W_P(X, log(v))`  | [`OpBody::PhysicalWrite`]                             |
//! | `W_PL(X)`         | [`OpBody::Physio`] (all [`PhysioOp`] variants)        |
//! | `W_IP(X, log(X))` | [`OpBody::IdentityWrite`] (cache-manager identity write) |
//! | `W_L(A, X)`       | [`LogicalOp::AppWrite`], [`LogicalOp::MovRec`] — *write-new* tree ops |
//! | `R(A, X)`         | [`LogicalOp::AppRead`]                                |
//! | `Ex(A)`           | [`PhysioOp::AppExec`]                                 |
//! | general logical   | [`LogicalOp::Copy`], [`LogicalOp::SortExtent`], [`LogicalOp::Mix`] |
//!
//! Every operation knows its **read set** and **write set** (paper §2.2) and
//! is a **deterministic** function from the values of its read set to new
//! values for its write set ([`OpBody::apply`]). Determinism is what makes
//! redo recovery by replay possible: during roll-forward the operation is
//! re-executed against the (recovered) read-set values and must regenerate
//! exactly the effects it had during normal execution.
//!
//! The crate also classifies operations ([`OpClass`], [`TreeForm`]):
//!
//! * *page-oriented* operations read and write at most the single target
//!   page, so dirty pages can be flushed in any order;
//! * *tree* operations (paper §4) additionally allow `W_L(old, new)` — read
//!   an existing object, write a brand-new one — which keeps every
//!   write-graph node single-object and the graph a forest;
//! * *general logical* operations may read and write several pages and
//!   induce arbitrary (acyclic after collapsing) flush-order constraints.
//!
//! Module map:
//!
//! * [`body`] — [`OpBody`], [`PhysioOp`], [`LogicalOp`]: the operation forms
//!   and their `readset`/`writeset`/`apply`.
//! * [`class`] — [`OpClass`] and [`TreeForm`] classification.
//! * [`recpage`] — a sorted record-page codec (the on-page format shared by
//!   the B-tree and file-system workloads).
//! * [`mix`] — deterministic byte-mixing primitives used by synthetic
//!   logical operations.
//! * [`error`] — [`OpError`].

pub mod body;
pub mod class;
pub mod error;
pub mod mix;
pub mod recpage;

pub use body::{LogicalOp, OpBody, PageReader, PhysioOp};
pub use class::{OpClass, TreeForm};
pub use error::OpError;
pub use recpage::{RecPage, RecView};
