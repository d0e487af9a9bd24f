//! # alba-features
//!
//! Feature pipeline for the ALBADross reproduction: raw-telemetry
//! preprocessing (Sec. IV-E.1), the MVTS (48 features/metric) and
//! TSFRESH-style (176 features/metric) statistical extractors (Sec. III-A),
//! chi-square feature selection (Sec. III-B) and Min-Max scaling
//! (Sec. IV-E.2), all implemented from scratch.

#![warn(missing_docs)]

pub mod extract;
pub mod fft;
pub mod mvts;
pub mod preprocess;
pub mod scale;
pub mod select;
pub mod source;
pub mod stats;
pub mod tsfresh;
pub mod view;

pub use extract::{drop_degenerate_features, extract_features, FeatureExtractor, SelectScratch};
pub use fft::{fft_in_place, real_fft_magnitudes, welch_psd};
pub use mvts::{Mvts, MVTS_FEATURE_NAMES};
pub use preprocess::{diff_counter, interpolate_gaps, preprocess, trim_bounds, PreprocessConfig};
pub use scale::MinMaxScaler;
pub use select::{chi_square_scores, select_clean_top_k, ChiSquareScores};
pub use source::{ExtractPlan, ExtractScratch, SeriesSource};
pub use tsfresh::{tsfresh_feature_suffixes, TsFresh};
pub use view::FeatureView;
