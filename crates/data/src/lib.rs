//! # alba-data
//!
//! Shared data structures for the ALBADross reproduction: a dense row-major
//! [`Matrix`], labeled [`Dataset`]s with per-sample provenance, multivariate
//! time-series containers, stratified splitting / cross-validation
//! utilities used throughout the evaluation, and the `f64` total-order
//! keys that the presort and the extractors sort by.

#![warn(missing_docs)]

pub mod dataset;
pub mod labels;
pub mod matrix;
pub mod order;
pub mod series;
pub mod split;

pub use dataset::{Dataset, SampleMeta};
pub use labels::LabelEncoder;
pub use matrix::{dot, Matrix};
pub use order::{canonical_nan, from_total_order_key, sort_total, total_order_key};
pub use series::{MetricDef, MetricKind, MultiSeries};
pub use split::{bootstrap_indices, one_per_app_class_pair, stratified_k_fold, stratified_split};
