//! The one way workspace code takes a [`Mutex`].
//!
//! [`lock`] recovers a poisoned mutex, and in debug builds it enforces the
//! workspace's lock order: a thread holds at most one workspace mutex at a
//! time, so a nested [`lock`] panics in every debug test that runs it. The
//! root `clippy.toml` bans `Mutex::lock`/`try_lock`, so no acquisition
//! escapes the check. Only exercised paths are checked, and release builds
//! carry no check.

use std::ops::{Deref, DerefMut};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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
/// In debug builds, if this thread already holds a workspace mutex.
pub fn lock<T>(mutex: &Mutex<T>) -> Guard<'_, T> {
    let held = Held::enter();
    #[expect(
        clippy::disallowed_methods,
        reason = "the one raw acquisition, behind the held-lock check"
    )]
    let inner = mutex.lock().unwrap_or_else(PoisonError::into_inner);
    Guard { inner, _held: held }
}

impl<T> Guard<'_, T> {
    /// Waits on `condvar`, releasing the mutex until woken. The thread
    /// still counts as holding it: a waiting thread takes no other lock.
    pub fn wait(self, condvar: &Condvar) -> Self {
        let Guard { inner, _held } = self;
        let inner = condvar.wait(inner).unwrap_or_else(PoisonError::into_inner);
        Guard { inner, _held }
    }
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

#[cfg(debug_assertions)]
thread_local! {
    /// Workspace mutexes this thread holds: 0 or 1, more only while a
    /// panic unwinds.
    static HELD: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// One count in [`HELD`], given back on drop, unwinding included.
#[derive(Debug)]
struct Held;

impl Held {
    fn enter() -> Held {
        #[cfg(debug_assertions)]
        HELD.with(|held| {
            // Unwinding runs drops that may lock (a span closing, say); a
            // second panic there would abort and hide the first.
            assert!(
                held.get() == 0 || std::thread::panicking(),
                "lock order: this thread took a second workspace mutex while holding one"
            );
            held.set(held.get() + 1);
        });
        Held
    }
}

#[cfg(debug_assertions)]
impl Drop for Held {
    fn drop(&mut self) {
        HELD.with(|held| held.set(held.get() - 1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

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
    fn a_woken_guard_still_counts_as_held() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let waker = Arc::clone(&pair);
        let handle = thread::spawn(move || {
            *lock(&waker.0) = true;
            waker.1.notify_one();
        });
        let mut ready = lock(&pair.0);
        while !*ready {
            ready = ready.wait(&pair.1);
        }
        handle.join().expect("waker thread");
        let other = Mutex::new(());
        let nested = std::panic::catch_unwind(|| drop(lock(&other)));
        assert_eq!(nested.is_err(), cfg!(debug_assertions));
        drop(ready);
        drop(lock(&other));
    }

    #[test]
    fn a_guard_dropped_while_unwinding_releases_its_count() {
        let (a, b) = (Mutex::new(0), Mutex::new(0));
        let died = std::panic::catch_unwind(|| {
            let _a = lock(&a);
            panic!("holder dies");
        });
        assert!(died.is_err());
        // Poisoned by the panic, recovered by `lock`, and no count leaked.
        *lock(&a) += 1;
        *lock(&b) += 1;
        assert_eq!(*lock(&a), 1);
        assert_eq!(*lock(&b), 1);
    }
}
