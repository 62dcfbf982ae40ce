//! The one greedy minimizer behind every reproducer the workspace prints:
//! the model checker's counterexample ladders, the chaos campaign's
//! minimal schedules and the fuzzer's promoted scenarios.

/// Shrink a failing input: take the first of `candidates(current)` that
/// still fails, in the order the caller lists them, and repeat until none
/// does. The result is 1-minimal with respect to the candidate list (no
/// candidate of it still fails) and deterministic given a deterministic
/// predicate, so the same input always shrinks to the same reproducer.
///
/// `current` itself is never re-checked: the caller hands in an input
/// that fails. Each caller fixes its candidate order; the order decides
/// which of several equally small reproducers comes out.
pub fn shrink<T, I>(
    mut current: T,
    mut candidates: impl FnMut(&T) -> I,
    mut still_fails: impl FnMut(&T) -> bool,
) -> T
where
    I: IntoIterator<Item = T>,
{
    loop {
        let next = candidates(&current).into_iter().find(|c| still_fails(c));
        match next {
            Some(next) => current = next,
            None => return current,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::shrink;

    #[test]
    fn takes_the_first_failing_candidate_until_none_fails() {
        // Fails while the sum is at least 10; candidates drop one element,
        // first element first.
        let drop_one = |v: &Vec<u32>| {
            let v = v.clone();
            (0..v.len()).map(move |i| {
                let mut c = v.clone();
                c.remove(i);
                c
            })
        };
        let min = shrink(vec![1, 2, 3, 4, 5], drop_one, |v| {
            v.iter().sum::<u32>() >= 10
        });
        // 1 goes, then 2; from [3, 4, 5] every drop sums below 10.
        assert_eq!(min, vec![3, 4, 5]);
    }

    #[test]
    fn no_candidates_returns_the_input() {
        let min = shrink(7u8, |_| None, |_| true);
        assert_eq!(min, 7);
    }
}
