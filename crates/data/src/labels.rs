//! String-label encoding.

use serde::{Deserialize, Serialize};

/// Bidirectional mapping between class names and contiguous class indices.
///
/// The order of insertion defines the class index, so an encoder built from
/// `["healthy", "cpuoccupy", ...]` always encodes `healthy` as class 0 —
/// experiments rely on this to compute false-alarm and miss rates.
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct LabelEncoder {
    names: Vec<String>,
}

impl LabelEncoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds an encoder from a fixed, ordered list of class names.
    ///
    /// # Panics
    /// Panics on duplicate names.
    pub fn from_names<S: AsRef<str>>(names: &[S]) -> Self {
        let mut enc = Self::new();
        for n in names {
            assert!(enc.encode(n.as_ref()).is_none(), "duplicate class name {:?}", n.as_ref());
            enc.names.push(n.as_ref().to_string());
        }
        enc
    }

    /// Returns the index for `name` if known.
    pub fn encode(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Returns the name for class `idx` if in range.
    pub fn decode(&self, idx: usize) -> Option<&str> {
        self.names.get(idx).map(String::as_str)
    }

    /// Number of known classes.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True when no class has been registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// All class names in index order.
    pub fn names(&self) -> &[String] {
        &self.names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insertion_order_defines_index() {
        let enc = LabelEncoder::from_names(&["healthy", "memleak", "dial"]);
        assert_eq!(enc.encode("healthy"), Some(0));
        assert_eq!(enc.encode("dial"), Some(2));
        assert_eq!(enc.decode(1), Some("memleak"));
        assert_eq!(enc.decode(3), None);
    }

    #[test]
    #[should_panic(expected = "duplicate class name")]
    fn from_names_rejects_duplicates() {
        let _ = LabelEncoder::from_names(&["a", "a"]);
    }
}
