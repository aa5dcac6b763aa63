//! Worklists that keep the fabric step proportional to its traffic.
//!
//! The fabric is sparse: a few dozen tokens cross thousands of links.
//! [`IndexSet`] marks the small indices (forward positions, node ids)
//! that have work, so the step visits exactly those in ascending order
//! instead of scanning the whole machine.

/// A fixed-capacity set of indices `0..capacity`, iterated in ascending
/// order. Membership changes are O(1); finding the next member costs one
/// word per 64 indices skipped.
#[derive(Clone, Debug)]
pub(crate) struct IndexSet {
    words: Vec<u64>,
    len: usize,
}

impl IndexSet {
    /// An empty set over `0..capacity`.
    pub(crate) fn new(capacity: usize) -> Self {
        IndexSet {
            words: vec![0; capacity.div_ceil(64)],
            len: 0,
        }
    }

    /// True when the set has no members.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Adds `i` (no-op when present).
    pub(crate) fn insert(&mut self, i: usize) {
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if self.words[word] & bit == 0 {
            self.words[word] |= bit;
            self.len += 1;
        }
    }

    /// Removes `i` (no-op when absent).
    pub(crate) fn remove(&mut self, i: usize) {
        let (word, bit) = (i / 64, 1u64 << (i % 64));
        if self.words[word] & bit != 0 {
            self.words[word] &= !bit;
            self.len -= 1;
        }
    }

    /// Removes every member.
    pub(crate) fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// The smallest member `>= from`. Callers that insert or remove while
    /// walking the set resume with `next_from(i + 1)`.
    pub(crate) fn next_from(&self, from: usize) -> Option<usize> {
        if self.len == 0 {
            return None;
        }
        let mut word = from / 64;
        let mut bits = *self.words.get(word)? & (!0u64 << (from % 64));
        loop {
            if bits != 0 {
                return Some(word * 64 + bits.trailing_zeros() as usize);
            }
            word += 1;
            bits = *self.words.get(word)?;
        }
    }

    /// Members in ascending order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::successors(self.next_from(0), move |&i| self.next_from(i + 1))
    }
}

#[cfg(test)]
mod tests {
    use super::IndexSet;

    #[test]
    fn members_iterate_in_ascending_order_across_words() {
        let mut set = IndexSet::new(200);
        for i in [130, 0, 63, 64, 199, 64] {
            set.insert(i);
        }
        assert_eq!(set.iter().count(), 5);
        assert_eq!(set.iter().collect::<Vec<_>>(), [0, 63, 64, 130, 199]);
        set.remove(63);
        set.remove(63);
        assert_eq!(set.iter().count(), 4);
        assert_eq!(set.next_from(1), Some(64));
        assert_eq!(set.next_from(131), Some(199));
        assert_eq!(set.next_from(200), None);
        set.clear();
        assert!(set.is_empty());
        assert_eq!(set.iter().next(), None);
    }

    #[test]
    fn empty_capacity_has_no_members() {
        let set = IndexSet::new(0);
        assert_eq!(set.next_from(0), None);
    }
}
