//! The one way workspace code takes a [`Mutex`].
//!
//! [`lock`] recovers a poisoned mutex, and in debug builds it enforces the
//! workspace's lock order: a thread holds at most one workspace mutex at a
//! time, besides one taken first with [`lock_outer`], so any other nesting
//! panics in every debug test that runs it. The root `clippy.toml` bans
//! `Mutex::lock`/`try_lock`, so no acquisition escapes the check. Only
//! exercised paths are checked, and release builds carry no check.

use std::ops::{Deref, DerefMut};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A held workspace mutex: derefs to the protected value and releases
/// the mutex, and the thread's held-lock count, when dropped.
#[derive(Debug)]
pub struct Guard<'a, T> {
    inner: MutexGuard<'a, T>,
    _held: Held,
}

/// Takes `mutex`, recovering it if a panicking holder poisoned it.
///
/// # Panics
///
/// In debug builds, if this thread already holds a workspace mutex other
/// than one taken with [`lock_outer`].
pub fn lock<T>(mutex: &Mutex<T>) -> Guard<'_, T> {
    acquire(mutex, INNER)
}

/// [`lock`] for the outer level of the lock order: while a thread holds
/// this mutex, it may take one [`lock`] at a time.
///
/// # Panics
///
/// In debug builds, if this thread already holds a workspace mutex.
pub fn lock_outer<T>(mutex: &Mutex<T>) -> Guard<'_, T> {
    acquire(mutex, OUTER)
}

fn acquire<T>(mutex: &Mutex<T>, level: usize) -> Guard<'_, T> {
    let held = Held::enter(level);
    #[expect(
        clippy::disallowed_methods,
        reason = "the one raw acquisition, behind the held-lock check"
    )]
    let inner = mutex.lock().unwrap_or_else(PoisonError::into_inner);
    Guard { inner, _held: held }
}

impl<T> Deref for Guard<'_, T> {
    type Target = T;

    fn deref(&self) -> &T {
        &self.inner
    }
}

impl<T> DerefMut for Guard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.inner
    }
}

/// The levels of the lock order, as indices into [`HELD`].
const INNER: usize = 0;
const OUTER: usize = 1;

#[cfg(debug_assertions)]
thread_local! {
    /// Workspace mutexes this thread holds, per level: 0 or 1 each, more
    /// only while a panic unwinds.
    static HELD: std::cell::Cell<[usize; 2]> = const { std::cell::Cell::new([0; 2]) };
}

/// One count in [`HELD`], given back on drop, unwinding included.
#[derive(Debug)]
struct Held(
    #[cfg_attr(not(debug_assertions), expect(dead_code, reason = "debug check only"))] usize,
);

impl Held {
    fn enter(level: usize) -> Held {
        #[cfg(debug_assertions)]
        HELD.with(|held| {
            let mut counts = held.get();
            // Unwinding runs drops that may lock (a span closing, say); a
            // second panic there would abort and hide the first.
            assert!(
                counts[INNER] == 0 && (level == INNER || counts[OUTER] == 0)
                    || std::thread::panicking(),
                "lock order: this thread took a second workspace mutex while holding one"
            );
            counts[level] += 1;
            held.set(counts);
        });
        Held(level)
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        HELD.with(|held| {
            let mut counts = held.get();
            counts[self.0] -= 1;
            held.set(counts);
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "second workspace mutex"))]
    fn nested_locks_panic_in_debug_builds() {
        let (a, b) = (Mutex::new(1), Mutex::new(2));
        let _a = lock(&a);
        let _b = lock(&b);
    }

    #[test]
    fn lock_drop_then_lock_another_is_fine() {
        let (a, b) = (Mutex::new(1), Mutex::new(2));
        *lock(&a) += 1;
        let b = lock(&b);
        assert_eq!(*b, 2);
        drop(b);
        assert_eq!(*lock(&a), 2);
    }

    #[test]
    fn an_outer_lock_admits_one_inner_lock_at_a_time() {
        let (outer, a, b) = (Mutex::new(0), Mutex::new(1), Mutex::new(2));
        let _outer = lock_outer(&outer);
        *lock(&a) += 1;
        *lock(&b) += 1;
        assert_eq!(*lock(&a), 2);
        assert_eq!(*lock(&b), 3);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "second workspace mutex"))]
    fn an_outer_lock_under_an_inner_one_panics_in_debug_builds() {
        let (inner, outer) = (Mutex::new(1), Mutex::new(2));
        let _inner = lock(&inner);
        let _outer = lock_outer(&outer);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "second workspace mutex"))]
    fn two_outer_locks_panic_in_debug_builds() {
        let (a, b) = (Mutex::new(1), Mutex::new(2));
        let _a = lock_outer(&a);
        let _b = lock_outer(&b);
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "second workspace mutex"))]
    fn two_inner_locks_under_an_outer_one_panic_in_debug_builds() {
        let (outer, a, b) = (Mutex::new(0), Mutex::new(1), Mutex::new(2));
        let _outer = lock_outer(&outer);
        let _a = lock(&a);
        let _b = lock(&b);
    }

    #[test]
    fn a_guard_dropped_while_unwinding_releases_its_count() {
        let (outer, a, b) = (Mutex::new(0), Mutex::new(0), Mutex::new(0));
        let died = std::panic::catch_unwind(|| {
            let _outer = lock_outer(&outer);
            let _a = lock(&a);
            panic!("holder dies");
        });
        assert!(died.is_err());
        // Poisoned by the panic, recovered by `lock`, and no count leaked.
        *lock(&a) += 1;
        *lock(&b) += 1;
        *lock_outer(&outer) += 1;
        assert_eq!(*lock(&a), 1);
        assert_eq!(*lock(&b), 1);
        assert_eq!(*lock_outer(&outer), 1);
    }
}
