//! Aggregation and validation of an `rfc_obs::trace` span log.
//!
//! The traced run feeds every JSONL event line here. Per span name the log
//! keeps the call count, total and self time, and summed counters. It also
//! validates the log as `examples/trace_check.rs` does: every open closes
//! (with the same name and parent), every parent was opened, and children never
//! exceed their parent.
//!
//! Self time is a span's duration minus the durations of its children on the
//! *same* thread. A child on another thread runs concurrently with its parent,
//! so it does not reduce the parent's self time; it must still fit inside the
//! parent, and it may not outlive it.

use std::collections::{BTreeMap, HashMap, HashSet};

use rfc_graph::json::JsonValue;

/// Totals for every span of one name.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NameStats {
    /// Spans closed.
    pub count: u64,
    /// Summed durations, microseconds.
    pub total_us: u64,
    /// Summed self times, microseconds.
    pub self_us: u64,
    /// Summed span counters.
    pub counters: BTreeMap<String, u64>,
}

impl NameStats {
    /// Mean self time per span, milliseconds (0 when none closed).
    pub fn self_ms(&self) -> f64 {
        per_span_ms(self.self_us, self.count)
    }

    /// Mean duration per span, milliseconds (0 when none closed).
    pub fn total_ms(&self) -> f64 {
        per_span_ms(self.total_us, self.count)
    }
}

fn per_span_ms(us: u64, count: u64) -> f64 {
    if count == 0 {
        0.0
    } else {
        us as f64 / 1e3 / count as f64
    }
}

struct OpenSpan {
    name: String,
    parent: Option<u64>,
    thread: u64,
    /// Summed durations of closed children on this span's thread.
    same_thread_us: u64,
    /// Longest closed child on another thread.
    cross_thread_max_us: u64,
}

/// Streaming span-log aggregator (see the module docs).
#[derive(Default)]
pub struct SpanLog {
    open: HashMap<u64, OpenSpan>,
    seen: HashSet<u64>,
    by_name: BTreeMap<String, NameStats>,
    events: u64,
    error: Option<String>,
}

impl SpanLog {
    /// An empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feeds one JSONL event line. The first violation is kept and reported by
    /// [`finish`](Self::finish); later lines are still counted.
    pub fn feed(&mut self, line: &str) {
        self.events += 1;
        if self.error.is_none() {
            if let Err(e) = self.apply(line) {
                self.error = Some(format!("event {}: {e}", self.events));
            }
        }
    }

    fn apply(&mut self, line: &str) -> Result<(), String> {
        let v = JsonValue::parse(line).map_err(|e| format!("unparseable line: {e}"))?;
        let field = |name: &str| v.get(name).and_then(JsonValue::as_u64);
        let (Some(id), Some(thread), Some(name)) = (
            field("id"),
            field("thread"),
            v.get("name").and_then(JsonValue::as_str),
        ) else {
            return Err("missing id, thread or name".to_string());
        };
        let parent = field("parent");
        match v.get("ev").and_then(JsonValue::as_str) {
            Some("open") => {
                if let Some(p) = parent {
                    if !self.seen.contains(&p) {
                        return Err(format!("span {name} #{id} has unknown parent #{p}"));
                    }
                }
                if !self.seen.insert(id) {
                    return Err(format!("span #{id} opened twice"));
                }
                self.open.insert(
                    id,
                    OpenSpan {
                        name: name.to_string(),
                        parent,
                        thread,
                        same_thread_us: 0,
                        cross_thread_max_us: 0,
                    },
                );
                Ok(())
            }
            Some("close") => {
                let dur = field("dur_us").ok_or("close without dur_us")?;
                let span = self
                    .open
                    .remove(&id)
                    .ok_or_else(|| format!("close without open (#{id})"))?;
                if span.name != name || span.parent != parent || span.thread != thread {
                    return Err(format!("close of {name} #{id} does not match its open"));
                }
                if span.same_thread_us > dur || span.cross_thread_max_us > dur {
                    return Err(format!("children of {name} #{id} exceed its {dur} us"));
                }
                if let Some(p) = parent {
                    let parent_span = self
                        .open
                        .get_mut(&p)
                        .ok_or_else(|| format!("span {name} #{id} outlived its parent #{p}"))?;
                    if parent_span.thread == thread {
                        parent_span.same_thread_us += dur;
                    } else {
                        parent_span.cross_thread_max_us = parent_span.cross_thread_max_us.max(dur);
                    }
                }
                let stats = self.by_name.entry(span.name).or_default();
                stats.count += 1;
                stats.total_us += dur;
                stats.self_us += dur - span.same_thread_us;
                if let Some(counters) = v.get("counters") {
                    let JsonValue::Object(pairs) = counters else {
                        return Err(format!("counters of #{id} are not an object"));
                    };
                    for (key, value) in pairs {
                        let value = value
                            .as_u64()
                            .ok_or_else(|| format!("counter {key} of #{id} is not a count"))?;
                        *stats.counters.entry(key.clone()).or_default() += value;
                    }
                }
                Ok(())
            }
            other => Err(format!("unknown event {other:?}")),
        }
    }

    /// Per-name totals so far.
    pub fn stats(&self, name: &str) -> NameStats {
        self.by_name.get(name).cloned().unwrap_or_default()
    }

    /// Ends the log: every span must have closed and no rule may have failed.
    /// Returns the number of events seen.
    pub fn finish(&self) -> Result<u64, String> {
        if let Some(e) = &self.error {
            return Err(e.clone());
        }
        if let Some((id, span)) = self.open.iter().next() {
            return Err(format!("span {} #{id} was never closed", span.name));
        }
        Ok(self.events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn open(id: u64, parent: Option<u64>, thread: u64, name: &str) -> String {
        let parent = parent.map_or("null".to_string(), |p| p.to_string());
        format!(
            "{{\"ev\":\"open\",\"id\":{id},\"parent\":{parent},\"thread\":{thread},\
             \"name\":\"{name}\",\"t_us\":0}}"
        )
    }

    fn close(id: u64, parent: Option<u64>, thread: u64, name: &str, dur: u64) -> String {
        let parent = parent.map_or("null".to_string(), |p| p.to_string());
        format!(
            "{{\"ev\":\"close\",\"id\":{id},\"parent\":{parent},\"thread\":{thread},\
             \"name\":\"{name}\",\"t_us\":{dur},\"dur_us\":{dur},\"counters\":{{\"n\":{id}}}}}"
        )
    }

    fn log(lines: &[String]) -> SpanLog {
        let mut log = SpanLog::new();
        for line in lines {
            log.feed(line);
        }
        log
    }

    #[test]
    fn self_time_subtracts_same_thread_children() {
        let log = log(&[
            open(1, None, 1, "solve"),
            open(2, Some(1), 1, "reduce"),
            close(2, Some(1), 1, "reduce", 30),
            open(3, Some(1), 1, "search"),
            close(3, Some(1), 1, "search", 50),
            close(1, None, 1, "solve", 100),
        ]);
        assert_eq!(log.finish(), Ok(6));
        let solve = log.stats("solve");
        assert_eq!((solve.count, solve.total_us, solve.self_us), (1, 100, 20));
        assert_eq!(log.stats("reduce").self_us, 30);
        assert_eq!(log.stats("search").counters.get("n"), Some(&3));
        assert_eq!(log.stats("absent"), NameStats::default());
    }

    #[test]
    fn children_on_other_threads_do_not_reduce_self_time() {
        // Two workers run concurrently under one parent: their sum exceeds the
        // parent, which is fine across threads, and the parent's self time only
        // loses its same-thread child.
        let log = log(&[
            open(1, None, 1, "search"),
            open(2, Some(1), 2, "component"),
            open(3, Some(1), 3, "component"),
            open(4, Some(1), 1, "merge"),
            close(4, Some(1), 1, "merge", 10),
            close(2, Some(1), 2, "component", 80),
            close(3, Some(1), 3, "component", 90),
            close(1, None, 1, "search", 100),
        ]);
        assert_eq!(log.finish(), Ok(8));
        assert_eq!(log.stats("search").self_us, 90);
        let component = log.stats("component");
        assert_eq!((component.count, component.self_us), (2, 170));
        assert_eq!(component.total_ms(), 0.085);
    }

    #[test]
    fn violations_are_reported() {
        let unclosed = log(&[open(1, None, 1, "a")]);
        assert!(unclosed.finish().unwrap_err().contains("never closed"));

        let orphan = log(&[open(2, Some(9), 1, "a")]);
        assert!(orphan.finish().unwrap_err().contains("unknown parent"));

        let overfull = log(&[
            open(1, None, 1, "a"),
            open(2, Some(1), 1, "b"),
            close(2, Some(1), 1, "b", 60),
            open(3, Some(1), 1, "c"),
            close(3, Some(1), 1, "c", 60),
            close(1, None, 1, "a", 100),
        ]);
        assert!(overfull.finish().unwrap_err().contains("exceed"));

        let cross_overfull = log(&[
            open(1, None, 1, "a"),
            open(2, Some(1), 2, "b"),
            close(2, Some(1), 2, "b", 120),
            close(1, None, 1, "a", 100),
        ]);
        assert!(cross_overfull.finish().unwrap_err().contains("exceed"));

        let outlived = log(&[
            open(1, None, 1, "a"),
            open(2, Some(1), 2, "b"),
            close(1, None, 1, "a", 100),
            close(2, Some(1), 2, "b", 50),
        ]);
        assert!(outlived.finish().unwrap_err().contains("outlived"));

        let garbage = log(&["not json".to_string()]);
        assert!(garbage.finish().unwrap_err().contains("unparseable"));
    }
}
