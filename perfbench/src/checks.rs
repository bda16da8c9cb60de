//! Output checks: every comparison a run makes is counted, and every
//! failure lands in the result's `failed` count.

use std::fmt::Debug;

/// The output checks of one run.
#[derive(Debug, Default)]
pub struct Checks {
    attempted: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Records one check named `what`.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what.to_owned());
        }
    }

    /// Records that `got` equals `want`, naming both on failure.
    pub fn equal<T: PartialEq + Debug>(&mut self, what: &str, want: &T, got: &T) {
        self.attempted += 1;
        if want != got {
            self.failures
                .push(format!("{what}: want {want:?}, got {got:?}"));
        }
    }

    /// Records that `value` lies in `[lo, hi]`.
    pub fn within(&mut self, what: &str, value: f64, lo: f64, hi: f64) {
        self.check(
            &format!("{what} = {value} outside [{lo}, {hi}]"),
            (lo..=hi).contains(&value),
        );
    }

    /// Checks attempted so far.
    #[must_use]
    pub fn attempted(&self) -> u64 {
        self.attempted
    }

    /// Descriptions of the checks that failed.
    #[must_use]
    pub fn failures(&self) -> &[String] {
        &self.failures
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_attempts_and_failures() {
        let mut c = Checks::default();
        c.check("ok", true);
        c.equal("same", &1, &1);
        c.within("in", 0.5, 0.0, 1.0);
        assert_eq!((c.attempted(), c.failures().len()), (3, 0));
        c.within("out", 1.5, 0.0, 1.0);
        c.equal("differs", &"a", &"b");
        assert_eq!((c.attempted(), c.failures().len()), (5, 2));
        assert!(c.failures()[1].contains("want \"a\""));
    }
}
