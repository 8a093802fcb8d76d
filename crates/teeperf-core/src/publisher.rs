//! Deferred tail publication for the file-backed writer.
//!
//! A [`crate::shm_file::FileShmWriter`] stores each slot itself and hands
//! the tail store to a [`TailPublisher`]: a thread of its own that stores
//! the newest tail at most [`PUBLISH_WITHIN`] after it is woken by the
//! first write not yet published, so a run of writes pays one tail store,
//! not one each. `shm_file` keeps the two stores of the protocol; this
//! module keeps the timing and the hand-off from the writer to its
//! publisher.
//!
//! The hand-off is one word, `noted`: the newest tail, with the wake flag
//! [`ARMED`] set while it is unpublished. The writer swaps its new tail in
//! (Release), after the slot write below it completed, and wakes the
//! publisher only when the flag was clear. A publication clears the flag
//! and reads the tail in one Acquire RMW, then stores it: slot write →
//! wake flag → tail store is a happens-before chain. Every store, the
//! thread's and a synchronous [`TailPublisher::publish`], runs under one
//! lock and only ever moves the stored tail forward.

// teeperf-lint: allow(raw-atomics, file): the noted-tail word and the stop
// flag hand one writer's progress to its own publisher thread inside one
// process; they are host-side control state, not shared-log words, which
// this module never touches (it calls the tail store `shm_file` gives it).

use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::{self, JoinHandle, Thread};
use std::time::{Duration, Instant};

/// The longest a written entry waits for its tail store once the publisher
/// is awake: far under the daemon's 25 ms default pump, and at most 1 000
/// tail stores a second.
pub const PUBLISH_WITHIN: Duration = Duration::from_millis(1);

/// The wake flag: set in `noted` while its tail awaits publication.
const ARMED: u64 = 1 << 63;

/// One tail store: publishes every slot below the tail it is given.
pub type TailStore = Box<dyn FnMut(u64) -> io::Result<()> + Send>;

struct Shared {
    /// The newest tail the writer noted, [`ARMED`] while unpublished.
    noted: AtomicU64,
    stop: AtomicBool,
    /// The tail store and the newest tail it stored, held across a store
    /// so that stores are serialized and never go back.
    store: Mutex<(TailStore, u64)>,
}

impl Shared {
    fn publish(&self) -> io::Result<()> {
        let mut guard = self.store.lock().unwrap_or_else(PoisonError::into_inner);
        let (store, stored) = &mut *guard;
        // ord: Acquire — pairs with the writer's Release swap in `note`:
        // every slot write below the tail read here completed before it.
        let tail = self.noted.fetch_and(!ARMED, Ordering::Acquire) & !ARMED;
        if tail > *stored {
            // A failed store leaves the tail to the next one; a
            // synchronous publication reports it.
            store(tail)?;
            *stored = tail;
        }
        Ok(())
    }

    fn stopped(&self) -> bool {
        // ord: Relaxed — a standalone quit signal; the owner's join() is
        // the synchronization edge, and it publishes after that itself.
        self.stop.load(Ordering::Relaxed)
    }

    /// The publisher thread: park while nothing is pending; once woken by
    /// a write, wait out [`PUBLISH_WITHIN`] and store the newest tail.
    fn run(&self) {
        loop {
            // ord: Relaxed — only decides whether to sleep; the tail
            // itself is read by the Acquire RMW in `publish`.
            while self.noted.load(Ordering::Relaxed) & ARMED == 0 {
                if self.stopped() {
                    return;
                }
                thread::park();
            }
            let due = Instant::now() + PUBLISH_WITHIN;
            loop {
                if self.stopped() {
                    return;
                }
                let now = Instant::now();
                if now >= due {
                    break;
                }
                thread::park_timeout(due - now);
            }
            let _ = self.publish();
        }
    }
}

/// A writer's tail publisher: its own thread, which stores the newest
/// noted tail at most [`PUBLISH_WITHIN`] after the first unpublished
/// write woke it, and parks while nothing is pending. Dropping it stops
/// the thread and publishes.
pub struct TailPublisher {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
    /// The publisher thread, woken by the first unpublished write.
    waker: Thread,
}

impl TailPublisher {
    /// Start the publisher thread over `store`, nothing noted yet.
    ///
    /// # Errors
    /// Propagates a failure to spawn the thread.
    pub fn start(store: TailStore) -> io::Result<TailPublisher> {
        let shared = Arc::new(Shared {
            noted: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            store: Mutex::new((store, 0)),
        });
        let thread_shared = Arc::clone(&shared);
        let handle = thread::Builder::new()
            .name("teeperf-publish".into())
            .spawn(move || thread_shared.run())?;
        Ok(TailPublisher {
            shared,
            waker: handle.thread().clone(),
            thread: Some(handle),
        })
    }

    /// Note `tail` as the newest, once every slot write below it has
    /// completed; wakes the publisher if nothing was pending.
    #[inline]
    pub fn note(&self, tail: u64) {
        // ord: Release — the slot writes before this note happen-before
        // the Acquire RMW in `publish` that reads it, and so the tail store.
        if self.shared.noted.swap(tail | ARMED, Ordering::Release) & ARMED == 0 {
            self.waker.unpark();
        }
    }

    /// Store the newest noted tail now, from the calling thread.
    ///
    /// # Errors
    /// Propagates the tail store's failure.
    pub fn publish(&self) -> io::Result<()> {
        self.shared.publish()
    }

    /// Stop the thread, then publish: once this returns `Ok`, every tail
    /// noted before it is stored and the thread stores nothing more.
    ///
    /// # Errors
    /// Propagates the tail store's failure.
    pub fn finish(&mut self) -> io::Result<()> {
        if let Some(handle) = self.thread.take() {
            // ord: Relaxed — the join() below orders the thread's exit.
            self.shared.stop.store(true, Ordering::Relaxed);
            self.waker.unpark();
            // The thread calls only the store, whose failures it drops.
            let _ = handle.join();
        }
        self.publish()
    }
}

impl Drop for TailPublisher {
    fn drop(&mut self) {
        let _ = self.finish();
    }
}

impl std::fmt::Debug for TailPublisher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        // ord: Relaxed — a diagnostic read of the noted word.
        let noted = self.shared.noted.load(Ordering::Relaxed);
        f.debug_struct("TailPublisher")
            .field("noted", &(noted & !ARMED))
            .field("pending", &(noted & ARMED != 0))
            .field("running", &self.thread.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A publisher whose stores land in a shared list.
    fn recording() -> (TailPublisher, Arc<Mutex<Vec<u64>>>) {
        let stores = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&stores);
        let store: TailStore = Box::new(move |tail| {
            sink.lock().unwrap().push(tail);
            Ok(())
        });
        (TailPublisher::start(store).unwrap(), stores)
    }

    #[test]
    fn publish_is_immediate_and_a_tail_is_stored_once() {
        let (mut p, stores) = recording();
        p.note(3);
        p.publish().unwrap();
        assert_eq!(*stores.lock().unwrap(), [3]);
        p.publish().unwrap();
        p.note(5);
        p.finish().unwrap();
        assert_eq!(*stores.lock().unwrap(), [3, 5], "nothing stored twice");
        assert!(p.thread.is_none());
    }

    #[test]
    fn a_failed_store_is_reported_by_a_synchronous_publication() {
        let fail = Arc::new(AtomicBool::new(true));
        let flag = Arc::clone(&fail);
        let store: TailStore = Box::new(move |_| {
            // ord: Relaxed — the test's own switch; the store runs under
            // the publisher's lock, and the join in `finish` orders the rest.
            if flag.load(Ordering::Relaxed) {
                Err(io::Error::other("store refused"))
            } else {
                Ok(())
            }
        });
        let mut p = TailPublisher::start(store).unwrap();
        p.note(1);
        assert!(p.publish().is_err());
        // ord: Relaxed — as above.
        fail.store(false, Ordering::Relaxed);
        p.finish().unwrap();
    }
}
