//! Generational slab arena.
//!
//! A dense, reusable store for the simulator's hot-path records (events,
//! transaction metadata). Allocation and release are O(1): freed slots
//! chain through an intrusive LIFO free list and are handed back in
//! deterministic order, so arena-backed code stays bit-identical across
//! runs. Each slot carries a generation counter; an [`ArenaId`] captures
//! the generation at allocation time, so a stale id (kept across a
//! release + reuse) is detected instead of silently aliasing the new
//! occupant.
//!
//! Compared to owning collections (`Vec<T>`, `VecDeque<T>`), the arena
//! lets hot loops pass 8-byte ids instead of cloning records, and reuse
//! keeps the per-event steady state allocation-free.

/// Handle to a live arena slot: slot index plus the generation observed
/// at allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ArenaId {
    index: u32,
    generation: u32,
}

impl ArenaId {
    /// The raw slot index (stable for the lifetime of the allocation).
    pub fn index(self) -> u32 {
        self.index
    }
}

enum Slot<T> {
    /// Free slot; `next_free` chains the LIFO free list (`u32::MAX` ends it).
    Free { next_free: u32 },
    Occupied { generation: u32, value: T },
}

const NIL: u32 = u32::MAX;

/// A generational slab arena. See the [module docs](self).
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    /// Generation per slot index; bumped on release so stale ids miss.
    generations: Vec<u32>,
    free_head: u32,
    len: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty arena with room for `capacity` live values.
    pub fn with_capacity(capacity: usize) -> Self {
        Arena {
            slots: Vec::with_capacity(capacity),
            generations: Vec::with_capacity(capacity),
            free_head: NIL,
            len: 0,
        }
    }

    /// Stores `value`, reusing a freed slot when one exists (most
    /// recently freed first — deterministic LIFO).
    pub fn insert(&mut self, value: T) -> ArenaId {
        self.len += 1;
        if self.free_head != NIL {
            let index = self.free_head;
            let generation = self.generations[index as usize];
            match self.slots[index as usize] {
                Slot::Free { next_free } => self.free_head = next_free,
                Slot::Occupied { .. } => unreachable!("free list points at occupied slot"),
            }
            self.slots[index as usize] = Slot::Occupied { generation, value };
            ArenaId { index, generation }
        } else {
            let index = self.slots.len() as u32;
            self.slots.push(Slot::Occupied {
                generation: 0,
                value,
            });
            self.generations.push(0);
            ArenaId {
                index,
                generation: 0,
            }
        }
    }

    /// The value behind `id`, or `None` if it was released (or released
    /// and the slot reused — the generation check catches both).
    pub fn get(&self, id: ArenaId) -> Option<&T> {
        match self.slots.get(id.index as usize) {
            Some(Slot::Occupied { generation, value }) if *generation == id.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Mutable access to the value behind `id`.
    pub fn get_mut(&mut self, id: ArenaId) -> Option<&mut T> {
        match self.slots.get_mut(id.index as usize) {
            Some(Slot::Occupied { generation, value }) if *generation == id.generation => {
                Some(value)
            }
            _ => None,
        }
    }

    /// Removes and returns the value behind `id`; the slot goes back on
    /// the free list with a bumped generation. Stale ids return `None`.
    pub fn remove(&mut self, id: ArenaId) -> Option<T> {
        match self.slots.get(id.index as usize) {
            Some(Slot::Occupied { generation, .. }) if *generation == id.generation => {}
            _ => return None,
        }
        let slot = std::mem::replace(
            &mut self.slots[id.index as usize],
            Slot::Free {
                next_free: self.free_head,
            },
        );
        self.free_head = id.index;
        self.generations[id.index as usize] = self.generations[id.index as usize].wrapping_add(1);
        self.len -= 1;
        match slot {
            Slot::Occupied { value, .. } => Some(value),
            Slot::Free { .. } => unreachable!("checked occupied above"),
        }
    }

    /// Number of live values.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the arena holds no live values.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total slots ever allocated (live + free); the arena's footprint.
    pub fn capacity_used(&self) -> usize {
        self.slots.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut arena = Arena::new();
        let a = arena.insert("a");
        let b = arena.insert("b");
        assert_eq!(arena.get(a), Some(&"a"));
        assert_eq!(arena.get(b), Some(&"b"));
        assert_eq!(arena.len(), 2);
        assert_eq!(arena.remove(a), Some("a"));
        assert_eq!(arena.get(a), None);
        assert_eq!(arena.len(), 1);
    }

    #[test]
    fn slots_are_reused_lifo() {
        let mut arena = Arena::new();
        let a = arena.insert(1u32);
        let b = arena.insert(2);
        arena.remove(a);
        arena.remove(b);
        // LIFO: b's slot comes back first.
        let c = arena.insert(3);
        let d = arena.insert(4);
        assert_eq!(c.index(), b.index());
        assert_eq!(d.index(), a.index());
        assert_eq!(arena.capacity_used(), 2);
    }

    #[test]
    fn stale_ids_are_rejected() {
        let mut arena = Arena::new();
        let a = arena.insert(10u8);
        arena.remove(a);
        let b = arena.insert(20);
        assert_eq!(b.index(), a.index(), "slot must be reused");
        assert_eq!(arena.get(a), None, "stale id must miss");
        assert_eq!(arena.get_mut(a), None);
        assert_eq!(arena.remove(a), None);
        assert_eq!(arena.get(b), Some(&20));
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut arena = Arena::new();
        let id = arena.insert(vec![1, 2]);
        arena.get_mut(id).unwrap().push(3);
        assert_eq!(arena.get(id), Some(&vec![1, 2, 3]));
    }

    #[test]
    fn steady_state_reuses_one_slot() {
        let mut arena = Arena::new();
        for i in 0..10_000u32 {
            let id = arena.insert(i);
            assert_eq!(arena.remove(id), Some(i));
        }
        assert_eq!(arena.capacity_used(), 1);
        assert!(arena.is_empty());
    }
}
