//! Turns span records into a per-span-name profile of self time.
//!
//! Spans come from three places: `nvp --trace-out` JSONL files, the
//! daemon's flight ring (`GET /v1/debug/recorder`, same JSONL schema), and
//! the benchmark's own in-process collector. A span's self time is its
//! duration minus the durations of its direct children.

use nvp_obs::json::Json;
use nvp_obs::trace::TraceRecord;
use std::collections::{BTreeMap, HashMap};

#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub link: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The `job` attribute of a daemon `job.run` span.
    pub job: Option<u64>,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Span lines of a JSONL trace; meta and event lines are skipped.
pub fn parse_jsonl(text: &str) -> Vec<Span> {
    text.lines()
        .filter_map(|line| Json::parse(line).ok())
        .filter(|doc| doc.get("type").and_then(Json::as_str) == Some("span"))
        .filter_map(|doc| {
            let num = |key: &str| doc.get(key).and_then(Json::as_u64);
            Some(Span {
                id: num("id")?,
                parent: num("parent"),
                link: num("link"),
                name: doc.get("name")?.as_str()?.to_owned(),
                start_ns: num("start_ns")?,
                end_ns: num("end_ns")?,
                job: doc
                    .get("attrs")
                    .and_then(|a| a.get("job"))
                    .and_then(Json::as_u64),
            })
        })
        .collect()
}

/// Spans of an in-process recording.
pub fn from_records(records: Vec<TraceRecord>) -> Vec<Span> {
    records
        .into_iter()
        .filter_map(|r| match r {
            TraceRecord::Span(s) => Some(Span {
                id: s.id,
                parent: s.parent,
                link: s.link,
                name: s.name.to_owned(),
                start_ns: s.start_ns,
                end_ns: s.end_ns,
                job: None,
            }),
            TraceRecord::Event(_) => None,
        })
        .collect()
}

/// Self time of each span of one trace, in the order given.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(parent) = s.parent {
            *children.entry(parent).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            s.dur_ns()
                .saturating_sub(children.get(&s.id).copied().unwrap_or(0))
        })
        .collect()
}

/// Durations and self times per span name, over any number of traces.
#[derive(Default)]
pub struct Profile {
    by_name: BTreeMap<String, (Vec<u64>, Vec<u64>)>,
}

impl Profile {
    /// Adds one trace; ids are only compared within it.
    pub fn add(&mut self, spans: &[Span]) {
        for (span, own) in spans.iter().zip(self_times(spans)) {
            let entry = self.by_name.entry(span.name.clone()).or_default();
            entry.0.push(span.dur_ns());
            entry.1.push(own);
        }
    }

    pub fn count(&self, name: &str) -> usize {
        self.by_name.get(name).map_or(0, |e| e.0.len())
    }

    /// Summed self time of `name`, in ms.
    pub fn self_ms(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |e| e.1.iter().sum::<u64>() as f64 / 1e6)
    }

    /// Summed self time of every span, in ms.
    pub fn total_self_ms(&self) -> f64 {
        self.by_name.values().flat_map(|e| &e.1).sum::<u64>() as f64 / 1e6
    }

    /// Self time of `name` as a percentage of the self time of every span.
    pub fn share_pct(&self, name: &str) -> f64 {
        100.0 * self.self_ms(name) / self.total_self_ms().max(1e-9)
    }

    /// Self times of every `name` span, in µs.
    pub fn self_us_samples(&self, name: &str) -> Vec<f64> {
        self.by_name.get(name).map_or_else(Vec::new, |e| {
            e.1.iter().map(|&ns| ns as f64 / 1e3).collect()
        })
    }

    /// One line per span name: count, total and self time in ms.
    pub fn lines(&self) -> Vec<String> {
        self.by_name
            .iter()
            .map(|(name, (durs, own))| {
                format!(
                    "{name:<24} n={:<7} total={:>10.3} ms  self={:>10.3} ms",
                    durs.len(),
                    durs.iter().sum::<u64>() as f64 / 1e6,
                    own.iter().sum::<u64>() as f64 / 1e6,
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            link: None,
            name: format!("s{id}"),
            start_ns: start,
            end_ns: end,
            job: None,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span(1, None, 0, 100),
            span(2, Some(1), 10, 50),
            span(3, Some(2), 20, 30),
        ];
        assert_eq!(self_times(&spans), vec![60, 30, 10]);
    }

    #[test]
    fn jsonl_spans_parse_with_links_and_jobs() {
        let text = concat!(
            "{\"type\":\"meta\",\"version\":1,\"unit\":\"ns\"}\n",
            "{\"type\":\"span\",\"name\":\"job.run\",\"id\":7,\"parent\":null,\"tid\":1,",
            "\"start_ns\":5,\"end_ns\":9,\"link\":3,\"attrs\":{\"job\":2}}\n",
        );
        let spans = parse_jsonl(text);
        assert_eq!(spans.len(), 1);
        assert_eq!(
            (spans[0].link, spans[0].job, spans[0].dur_ns()),
            (Some(3), Some(2), 4)
        );
    }
}
