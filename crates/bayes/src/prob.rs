//! Log-domain decision helper.
//!
//! Scores are natural-log posteriors, so Bayes' rule multiplies as additions,
//! exactly the trick FeBiM exploits in hardware (Eq. (5) of the paper), and
//! the decision is the index of the largest score.

/// Index of the maximum value in a slice of log-domain scores.
///
/// Returns `None` for an empty slice. Ties resolve to the first maximum.
pub fn argmax(scores: &[f64]) -> Option<usize> {
    if scores.is_empty() {
        return None;
    }
    let mut best = 0usize;
    for (index, &score) in scores.iter().enumerate() {
        if score > scores[best] {
            best = index;
        }
    }
    Some(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn argmax_behaviour() {
        assert_eq!(argmax(&[]), None);
        assert_eq!(argmax(&[1.0]), Some(0));
        assert_eq!(argmax(&[0.1, 3.0, 2.0]), Some(1));
        // Ties resolve to the first occurrence.
        assert_eq!(argmax(&[2.0, 2.0]), Some(0));
        assert_eq!(argmax(&[f64::NEG_INFINITY, -1.0]), Some(1));
    }
}
