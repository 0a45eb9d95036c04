//! Bench-side tracing for the traced pass: in-memory spans recorded around
//! calls into each layer's public functions, a span-recording wrapper around
//! the chat binding, and a counting allocator.
//!
//! None of this runs in a timed run: the timed runs call the plain
//! [`ChatHistoryBinding`] and the plain system allocator, and the counting
//! allocator is installed only in the separate traced binary.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use bytes::Bytes;
use morpheus_appia::platform::{AppDelivery, DeliveryKind, NodeId};
use morpheus_chat::ChatHistoryBinding;
use morpheus_groupcomm::recovery::StateSection;
use morpheus_testbed::AppBinding;

use crate::stats::SpanSummary;

/// Span durations by span name, kept in memory until the pass ends.
#[derive(Debug, Default)]
pub struct Spans {
    durations: BTreeMap<&'static str, Vec<f64>>,
}

/// Shared handle to a [`Spans`] store, cloned into every wrapper.
pub type SharedSpans = Rc<RefCell<Spans>>;

/// Unit a span is reported in.
#[derive(Debug, Clone, Copy)]
pub enum SpanUnit {
    /// Nanoseconds.
    Ns,
    /// Microseconds.
    Us,
}

impl Spans {
    /// Records one span of `name` that started at `started`.
    pub fn record(&mut self, name: &'static str, started: Instant, unit: SpanUnit) {
        let ns = started.elapsed().as_nanos() as f64;
        let value = match unit {
            SpanUnit::Ns => ns,
            SpanUnit::Us => ns / 1000.0,
        };
        self.record_value(name, value);
    }

    /// Records one already-measured duration.
    pub fn record_value(&mut self, name: &'static str, value: f64) {
        self.durations.entry(name).or_default().push(value);
    }

    /// Summary of one span name (empty when it never fired).
    pub fn summary(&self, name: &str) -> SpanSummary {
        SpanSummary::of(self.durations.get(name).map_or(&[][..], Vec::as_slice))
    }
}

/// Times `f` as one span of `name`.
pub fn timed<T>(
    spans: &SharedSpans,
    name: &'static str,
    unit: SpanUnit,
    f: impl FnOnce() -> T,
) -> T {
    let started = Instant::now();
    let out = f();
    spans.borrow_mut().record(name, started, unit);
    out
}

/// The chat binding with a span around every call the runner makes into it:
/// `chat.compose_ns` per composed message, `chat.deliver_ns` per data
/// delivery (decode plus history record), and — through [`TimedSection`] —
/// `chat.export_us` / `chat.install_us` per state-section call the recovery
/// layer makes.
pub struct TracingBinding {
    /// The wrapped binding; its histories are what coverage is read from.
    pub inner: ChatHistoryBinding,
    spans: SharedSpans,
}

impl TracingBinding {
    /// Wraps a chat binding.
    pub fn new(inner: ChatHistoryBinding, spans: SharedSpans) -> Self {
        Self { inner, spans }
    }
}

impl AppBinding for TracingBinding {
    fn state_sections(&mut self, node: NodeId) -> Vec<Rc<dyn StateSection>> {
        self.inner
            .state_sections(node)
            .into_iter()
            .map(|section| {
                Rc::new(TimedSection {
                    inner: section,
                    spans: self.spans.clone(),
                }) as Rc<dyn StateSection>
            })
            .collect()
    }

    fn compose(&mut self, node: NodeId, seq: u64, size: usize) -> Option<Bytes> {
        let spans = self.spans.clone();
        timed(&spans, "chat.compose_ns", SpanUnit::Ns, || {
            self.inner.compose(node, seq, size)
        })
    }

    fn on_delivery(&mut self, node: NodeId, delivery: &AppDelivery) {
        if !matches!(delivery.kind, DeliveryKind::Data { .. }) {
            self.inner.on_delivery(node, delivery);
            return;
        }
        let spans = self.spans.clone();
        timed(&spans, "chat.deliver_ns", SpanUnit::Ns, || {
            self.inner.on_delivery(node, delivery)
        });
    }
}

/// A state section with a span around each export and install.
struct TimedSection {
    inner: Rc<dyn StateSection>,
    spans: SharedSpans,
}

impl StateSection for TimedSection {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn export(&self) -> Vec<u8> {
        timed(&self.spans, "chat.export_us", SpanUnit::Us, || {
            self.inner.export()
        })
    }

    fn install(&self, bytes: &[u8]) -> bool {
        timed(&self.spans, "chat.install_us", SpanUnit::Us, || {
            self.inner.install(bytes)
        })
    }
}

/// A global allocator that counts allocations and allocated bytes, then
/// defers to the system allocator. Installed only by the traced binary.
pub struct CountingAlloc {
    allocs: AtomicU64,
    bytes: AtomicU64,
}

impl CountingAlloc {
    /// A counter at zero.
    pub const fn new() -> Self {
        Self {
            allocs: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
        }
    }

    /// `(allocations, bytes)` counted so far.
    pub fn totals(&self) -> (u64, u64) {
        (
            self.allocs.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }

    fn count(&self, size: usize) {
        self.allocs.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(size as u64, Ordering::Relaxed);
    }
}

impl Default for CountingAlloc {
    fn default() -> Self {
        Self::new()
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counters are plain atomics and never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        self.count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        self.count(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
