//! Offline stand-in for the parts of `crossbeam-channel` this workspace
//! uses: an unbounded multi-producer multi-consumer FIFO channel with
//! clonable receivers, over a mutex and a condition variable. There is no
//! `bounded`: a stand-in that never blocked a sender would change what a
//! caller relying on back-pressure does, silently.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

struct State<T> {
    queue: VecDeque<T>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    state: Mutex<State<T>>,
    ready: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        // Every update leaves the queue and counts valid, so a panic in
        // another holder does not invalidate them.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

pub struct Sender<T>(Arc<Shared<T>>);
pub struct Receiver<T>(Arc<Shared<T>>);

pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    let shared = Arc::new(Shared {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            senders: 1,
            receivers: 1,
        }),
        ready: Condvar::new(),
    });
    (Sender(shared.clone()), Receiver(shared))
}

#[derive(PartialEq, Eq, Clone, Copy)]
pub struct SendError<T>(pub T);

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub struct RecvError;

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum RecvTimeoutError {
    Timeout,
    Disconnected,
}

impl<T> SendError<T> {
    /// The message that could not be sent.
    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}
impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}
impl<T> std::error::Error for SendError<T> {}
impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}
impl std::error::Error for RecvError {}
impl fmt::Display for TryRecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}
impl std::error::Error for TryRecvError {}
impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}
impl std::error::Error for RecvTimeoutError {}

impl<T> Sender<T> {
    pub fn send(&self, value: T) -> Result<(), SendError<T>> {
        let mut st = self.0.lock();
        if st.receivers == 0 {
            return Err(SendError(value));
        }
        st.queue.push_back(value);
        drop(st);
        self.0.ready.notify_one();
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.0.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.0.lock().senders += 1;
        Sender(self.0.clone())
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.senders -= 1;
        let last = st.senders == 0;
        drop(st);
        if last {
            self.0.ready.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.0.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            st = self
                .0
                .ready
                .wait(st)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.0.lock();
        match st.queue.pop_front() {
            Some(v) => Ok(v),
            None if st.senders == 0 => Err(TryRecvError::Disconnected),
            None => Err(TryRecvError::Empty),
        }
    }

    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.recv_deadline(Instant::now() + timeout)
    }

    pub fn recv_deadline(&self, deadline: Instant) -> Result<T, RecvTimeoutError> {
        let mut st = self.0.lock();
        loop {
            if let Some(v) = st.queue.pop_front() {
                return Ok(v);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(RecvTimeoutError::Timeout);
            }
            st = self
                .0
                .ready
                .wait_timeout(st, left)
                .unwrap_or_else(PoisonError::into_inner)
                .0;
        }
    }

    pub fn len(&self) -> usize {
        self.0.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocking iterator that ends when the channel is empty and every
    /// sender is gone.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter(self)
    }

    /// Non-blocking iterator over what is queued right now.
    pub fn try_iter(&self) -> TryIter<'_, T> {
        TryIter(self)
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.0.lock().receivers += 1;
        Receiver(self.0.clone())
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut st = self.0.lock();
        st.receivers -= 1;
        if st.receivers == 0 {
            // Nobody can take these any more; free them now as the real
            // crate does when the last receiver goes.
            let orphaned = std::mem::take(&mut st.queue);
            drop(st);
            drop(orphaned);
        }
    }
}

pub struct Iter<'a, T>(&'a Receiver<T>);
pub struct TryIter<'a, T>(&'a Receiver<T>);
pub struct IntoIter<T>(Receiver<T>);

impl<T> Iterator for Iter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.0.recv().ok()
    }
}

impl<T> Iterator for TryIter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.0.try_recv().ok()
    }
}

impl<T> Iterator for IntoIter<T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.0.recv().ok()
    }
}

impl<T> IntoIterator for Receiver<T> {
    type Item = T;
    type IntoIter = IntoIter<T>;
    fn into_iter(self) -> IntoIter<T> {
        IntoIter(self)
    }
}

impl<'a, T> IntoIterator for &'a Receiver<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;
    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

impl<T> fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_across_cloned_receivers_and_disconnect() {
        let (tx, rx) = unbounded();
        let rx2 = rx.clone();
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        assert_eq!(rx.recv(), Ok(0));
        assert_eq!(rx2.recv(), Ok(1));
        drop(tx);
        assert_eq!(rx.into_iter().collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(rx2.try_recv(), Err(TryRecvError::Disconnected));
    }

    #[test]
    fn send_fails_once_all_receivers_are_gone() {
        let (tx, rx) = unbounded();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn recv_wakes_when_a_sender_on_another_thread_sends() {
        let (tx, rx) = unbounded();
        let t = std::thread::spawn(move || tx.send(7).unwrap());
        assert_eq!(rx.recv_timeout(Duration::from_secs(10)), Ok(7));
        t.join().unwrap();
    }
}
