//! A real-file backend with a worker-pool asynchronous I/O engine.
//!
//! This device exists to demonstrate that the pathix I/O operators run
//! unmodified on genuine files: `submit`/`poll` are served by a small pool of
//! reader threads performing positioned reads (`pread`), which is how a
//! portable userspace implementation of the paper's "asynchronous I/O
//! subsystem" looks when `libaio`/`io_uring` are unavailable.
//!
//! Measured wall time of blocking operations is charged to the shared
//! [`SimClock`] as I/O wait, so the same reporting pipeline works for both
//! simulated and real devices. Note that on a modern SSD + page cache the
//! *relative* costs differ wildly from the 2005 disk the paper used; the
//! benchmarks therefore default to [`crate::SimDisk`].

use crate::clock::SimClock;
use crate::device::{Completion, Device, DeviceStats, IoError, IoErrorKind, PageId};
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
#[cfg(not(unix))]
use std::io::Read;
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

enum Job {
    Read(PageId),
    Shutdown,
}

struct Pool {
    job_tx: Sender<Job>,
    done_rx: Receiver<(PageId, Option<Vec<u8>>)>,
    handles: Vec<std::thread::JoinHandle<()>>,
}

/// A page device over a regular file, with thread-pool async reads.
pub struct FileDevice {
    file: File,
    page_size: usize,
    num_pages: u32,
    pool: Option<Pool>,
    in_flight: usize,
    /// Out-of-range submissions, failed without reaching the pool.
    rejected: VecDeque<Completion>,
    stats: DeviceStats,
    last: Option<PageId>,
    trace: Option<Vec<PageId>>,
    path: std::path::PathBuf,
}

impl FileDevice {
    /// Opens (creating if necessary) a page file at `path`.
    pub fn open(path: &Path, page_size: usize, workers: usize) -> std::io::Result<Self> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let len = file.metadata()?.len();
        let num_pages = (len / page_size as u64) as u32;
        let mut dev = Self {
            file,
            page_size,
            num_pages,
            pool: None,
            in_flight: 0,
            rejected: VecDeque::new(),
            stats: DeviceStats::default(),
            last: None,
            trace: None,
            path: path.to_path_buf(),
        };
        dev.spawn_pool(workers.max(1))?;
        Ok(dev)
    }

    fn spawn_pool(&mut self, workers: usize) -> std::io::Result<()> {
        let (job_tx, job_rx) = channel::<Job>();
        let (done_tx, done_rx) = channel::<(PageId, Option<Vec<u8>>)>();
        let job_rx = Arc::new(Mutex::new(job_rx));
        let mut handles = Vec::with_capacity(workers);
        for _ in 0..workers {
            let rx = Arc::clone(&job_rx);
            let tx = done_tx.clone();
            let page_size = self.page_size;
            let file = self.file.try_clone()?;
            handles.push(std::thread::spawn(move || loop {
                let job = { rx.lock().recv() };
                match job {
                    Ok(Job::Read(page)) => {
                        let mut buf = vec![0u8; page_size];
                        let got = read_at(&file, &mut buf, page as u64 * page_size as u64);
                        // A failed read still reports a completion (with no
                        // bytes) so the request is not silently lost.
                        let payload = if got.is_ok() { Some(buf) } else { None };
                        if tx.send((page, payload)).is_ok() {
                            continue;
                        }
                        break;
                    }
                    Ok(Job::Shutdown) | Err(_) => break,
                }
            }));
        }
        self.pool = Some(Pool {
            job_tx,
            done_rx,
            handles,
        });
        Ok(())
    }

    fn account(&mut self, page: PageId, elapsed_ns: u64) {
        self.stats.reads += 1;
        match self.last {
            Some(l) if page == l + 1 => self.stats.sequential_reads += 1,
            Some(l) => {
                self.stats.random_reads += 1;
                self.stats.seek_distance_pages += page.abs_diff(l + 1) as u64;
            }
            None => self.stats.random_reads += 1,
        }
        self.last = Some(page);
        self.stats.busy_ns += elapsed_ns;
        if let Some(t) = self.trace.as_mut() {
            t.push(page);
        }
    }

    /// Path of the backing file.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(unix)]
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn read_at(file: &File, buf: &mut [u8], offset: u64) -> std::io::Result<()> {
    let mut f = file.try_clone()?;
    f.seek(SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

impl Drop for FileDevice {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.take() {
            for _ in &pool.handles {
                let _ = pool.job_tx.send(Job::Shutdown);
            }
            for h in pool.handles {
                let _ = h.join();
            }
        }
    }
}

impl Device for FileDevice {
    fn num_pages(&self) -> u32 {
        self.num_pages
    }

    fn page_size(&self) -> usize {
        self.page_size
    }

    fn read_sync(&mut self, page: PageId, clock: &SimClock) -> Result<Arc<[u8]>, IoError> {
        if page >= self.num_pages {
            return Err(IoError::new(page, IoErrorKind::Permanent));
        }
        let start = Instant::now();
        let mut buf = vec![0u8; self.page_size];
        let got = read_at(&self.file, &mut buf, page as u64 * self.page_size as u64);
        let elapsed = start.elapsed().as_nanos() as u64;
        self.account(page, elapsed);
        clock.wait_until(clock.now_ns() + elapsed);
        if got.is_err() {
            // The kernel rejected the read; a bad sector stays bad.
            return Err(IoError::new(page, IoErrorKind::Permanent));
        }
        // Real I/O materializes a fresh buffer from the kernel — the one
        // unavoidable page copy on this backend.
        self.stats.page_copies += 1;
        Ok(Arc::from(buf))
    }

    fn submit(&mut self, page: PageId, clock: &SimClock) {
        if page >= self.num_pages {
            let error = IoError::new(page, IoErrorKind::Permanent);
            self.rejected
                .push_back(Completion::err(page, error, clock.now_ns()));
            return;
        }
        let pool = self.pool.as_ref().expect("pool running");
        pool.job_tx.send(Job::Read(page)).expect("pool alive");
        self.in_flight += 1;
    }

    fn poll(&mut self, clock: &SimClock, block: bool) -> Option<Completion> {
        if let Some(c) = self.rejected.pop_front() {
            return Some(c);
        }
        if self.in_flight == 0 {
            return None;
        }
        let pool = self.pool.as_ref().expect("pool running");
        let start = Instant::now();
        let got = if block {
            pool.done_rx.recv().ok()
        } else {
            pool.done_rx.try_recv().ok()
        };
        let (page, bytes) = got?;
        let elapsed = start.elapsed().as_nanos() as u64;
        self.in_flight -= 1;
        self.account(page, elapsed);
        clock.wait_until(clock.now_ns() + elapsed);
        match bytes {
            Some(b) => {
                self.stats.page_copies += 1;
                Some(Completion::ok(page, Arc::from(b), clock.now_ns()))
            }
            None => Some(Completion::err(
                page,
                IoError::new(page, IoErrorKind::Permanent),
                clock.now_ns(),
            )),
        }
    }

    fn in_flight(&self) -> usize {
        self.in_flight + self.rejected.len()
    }

    fn append_page(&mut self, bytes: Vec<u8>) -> PageId {
        assert!(bytes.len() <= self.page_size, "page overflow");
        let id = self.num_pages;
        let mut b = bytes;
        b.resize(self.page_size, 0);
        self.file
            .seek(SeekFrom::Start(id as u64 * self.page_size as u64))
            .and_then(|_| self.file.write_all(&b))
            .expect("file device append failed");
        self.num_pages += 1;
        id
    }

    fn write_page(&mut self, page: PageId, bytes: Vec<u8>) {
        assert!(page < self.num_pages, "page {page} out of range");
        assert!(bytes.len() <= self.page_size, "page overflow");
        let mut b = bytes;
        b.resize(self.page_size, 0);
        self.file
            .seek(SeekFrom::Start(page as u64 * self.page_size as u64))
            .and_then(|_| self.file.write_all(&b))
            .expect("file device write failed");
    }

    fn stats(&self) -> DeviceStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = DeviceStats::default();
        if let Some(t) = self.trace.as_mut() {
            t.clear();
        }
    }

    fn access_trace(&self) -> &[PageId] {
        self.trace.as_deref().unwrap_or(&[])
    }

    fn set_trace(&mut self, enabled: bool) {
        if enabled {
            self.trace.get_or_insert_with(Vec::new);
        } else {
            self.trace = None;
        }
    }
}

#[cfg(test)]
mod tests {
    // Test assertions panic by design; R3 covers the non-test hot path.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;

    fn tmpfile(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("pathix-filedev-{}-{}", std::process::id(), name));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn sync_roundtrip() {
        let path = tmpfile("sync");
        let mut d = FileDevice::open(&path, 64, 2).unwrap();
        let a = d.append_page(vec![7; 10]);
        let b = d.append_page(vec![9; 10]);
        let clock = SimClock::new();
        assert_eq!(d.read_sync(a, &clock).unwrap()[0], 7);
        assert_eq!(d.read_sync(b, &clock).unwrap()[5], 9);
        assert_eq!(d.num_pages(), 2);
        drop(d);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn async_reads_complete() {
        let path = tmpfile("async");
        let mut d = FileDevice::open(&path, 32, 3).unwrap();
        for i in 0..8u8 {
            d.append_page(vec![i; 4]);
        }
        let clock = SimClock::new();
        for p in [5u32, 1, 7, 2] {
            d.submit(p, &clock);
        }
        let mut seen = std::collections::BTreeSet::new();
        while let Some(c) = d.poll(&clock, true) {
            assert_eq!(c.result.unwrap()[0] as u32, c.page);
            seen.insert(c.page);
        }
        assert_eq!(seen.into_iter().collect::<Vec<_>>(), vec![1, 2, 5, 7]);
        drop(d);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn out_of_range_read_fails_typed() {
        let path = tmpfile("range");
        let mut d = FileDevice::open(&path, 16, 1).unwrap();
        d.append_page(vec![1]);
        crate::device::tests::assert_out_of_range_read_fails(&mut d);
        drop(d);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn reopen_preserves_pages() {
        let path = tmpfile("reopen");
        {
            let mut d = FileDevice::open(&path, 16, 1).unwrap();
            d.append_page(vec![42]);
            d.append_page(vec![43]);
        }
        let mut d = FileDevice::open(&path, 16, 1).unwrap();
        assert_eq!(d.num_pages(), 2);
        let clock = SimClock::new();
        assert_eq!(d.read_sync(1, &clock).unwrap()[0], 43);
        drop(d);
        let _ = std::fs::remove_file(&path);
    }
}
