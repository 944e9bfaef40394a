//! Output checks against `algos::reference::reference_run`, with the
//! tolerances of the cross-mode equivalence tests.

/// A value type the benchmark can check against the reference executor.
pub trait Checked: Copy {
    fn matches(got: Self, want: Self) -> bool;
}

/// PageRank: relative 1e-9.
impl Checked for f64 {
    fn matches(got: f64, want: f64) -> bool {
        (got - want).abs() <= 1e-9 * want.abs().max(1e-12)
    }
}

/// SSSP: absolute 1e-4, or both unreachable.
impl Checked for f32 {
    fn matches(got: f32, want: f32) -> bool {
        if want.is_infinite() {
            got.is_infinite()
        } else {
            (got - want).abs() < 1e-4
        }
    }
}

/// WCC: exact labels.
impl Checked for u32 {
    fn matches(got: u32, want: u32) -> bool {
        got == want
    }
}

/// Whether every value matches its reference.
pub fn all_match<V: Checked>(got: &[V], want: &[V]) -> bool {
    got.len() == want.len() && got.iter().zip(want).all(|(g, w)| V::matches(*g, *w))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tolerances() {
        assert!(all_match(&[1.0f64], &[1.0 + 1e-12]));
        assert!(!all_match(&[1.0f64], &[1.001]));
        assert!(all_match(&[f32::INFINITY, 2.0], &[f32::INFINITY, 2.00001]));
        assert!(!all_match(&[3.0f32], &[f32::INFINITY]));
        assert!(!all_match(&[1u32, 2], &[1u32]));
    }
}
