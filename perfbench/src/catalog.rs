//! The metric catalogue: every metric the benchmark prints, with its
//! unit. `BENCHMARK.json` at the repository root declares the same
//! names and units; a test below keeps the two in step.

/// End-to-end metrics: printed by every untraced run, on every workload.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("user_slots_per_s", "1/s"),
    ("slot_ms_p50", "ms"),
    ("slot_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics measured by the traced binary run, on every
/// workload (0 where the workload does not exercise the layer).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("markov.draw_ns", "ns"),
    ("markov.draw_calls", "count"),
    ("markov.table_build_s", "s"),
    ("strategy.chaff_ns", "ns"),
    ("strategy.chaff_calls", "count"),
    ("sim.setup_s", "s"),
    ("sim.step_ms", "ms"),
    ("sim.step_self_ms", "ms"),
    ("sim.step_self_min_ms", "ms"),
    ("sim.run_chaffed_s", "s"),
    ("sim.state_bytes", "bytes"),
    ("sim.migrations", "count"),
    ("detector.push_slot_ms", "ms"),
    ("detector.batch_s", "s"),
    ("detector.paged_s", "s"),
    ("detector.tie_mean", "count"),
    ("detector.tie_fraction", "ratio"),
    ("detector.state_bytes", "bytes"),
    ("metrics.accuracy_s", "s"),
    ("mobility.ingest_s", "s"),
    ("mobility.estimate_s", "s"),
    ("mobility.nodes_in", "count"),
    ("mobility.nodes_kept", "count"),
    ("mobility.keep_ratio", "ratio"),
    ("store.append_ms", "ms"),
    ("store.finish_s", "s"),
    ("store.write_mb_per_s", "MB/s"),
    ("store.open_s", "s"),
    ("store.read_s", "s"),
    ("store.read_mb_per_s", "MB/s"),
    ("store.file_bytes", "bytes"),
    ("store.rows", "count"),
];

/// Prefix of the tracing-overhead metrics `run.py` adds to a traced
/// run: `overhead.<end-to-end name>` = traced value − untraced value, in
/// the end-to-end metric's unit.
pub const OVERHEAD_PREFIX: &str = "overhead.";

/// Unit of a catalogued metric (end-to-end, per-layer or overhead).
pub fn unit_of(name: &str) -> Option<&'static str> {
    fn find(table: &[(&str, &'static str)], key: &str) -> Option<&'static str> {
        table.iter().find(|(n, _)| *n == key).map(|(_, u)| *u)
    }
    match name.strip_prefix(OVERHEAD_PREFIX) {
        Some(base) => find(END_TO_END, base),
        None => find(END_TO_END, name).or_else(|| find(PER_LAYER, name)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// A just-enough JSON value for reading `BENCHMARK.json`.
    #[derive(Debug)]
    enum Json {
        Str(String),
        Num,
        Lit,
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
                self.i += 1;
            }
        }

        fn expect(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.s[self.i] as char, c as char, "at byte {}", self.i);
            self.i += 1;
        }

        fn string(&mut self) -> String {
            self.expect(b'"');
            let mut out = String::new();
            while self.s[self.i] != b'"' {
                if self.s[self.i] == b'\\' {
                    self.i += 1;
                }
                out.push(self.s[self.i] as char);
                self.i += 1;
            }
            self.i += 1;
            out
        }

        fn value(&mut self) -> Json {
            self.ws();
            match self.s[self.i] {
                b'"' => Json::Str(self.string()),
                b'[' => {
                    self.i += 1;
                    let mut items = Vec::new();
                    loop {
                        self.ws();
                        if self.s[self.i] == b']' {
                            self.i += 1;
                            return Json::Arr(items);
                        }
                        items.push(self.value());
                        self.ws();
                        if self.s[self.i] == b',' {
                            self.i += 1;
                        }
                    }
                }
                b'{' => {
                    self.i += 1;
                    let mut fields = Vec::new();
                    loop {
                        self.ws();
                        if self.s[self.i] == b'}' {
                            self.i += 1;
                            return Json::Obj(fields);
                        }
                        let key = self.string();
                        self.expect(b':');
                        fields.push((key, self.value()));
                        self.ws();
                        if self.s[self.i] == b',' {
                            self.i += 1;
                        }
                    }
                }
                c if c == b'-' || c.is_ascii_digit() => {
                    while self
                        .s
                        .get(self.i)
                        .is_some_and(|c| b"+-.eE".contains(c) || c.is_ascii_digit())
                    {
                        self.i += 1;
                    }
                    Json::Num
                }
                _ => {
                    while self.s.get(self.i).is_some_and(u8::is_ascii_alphabetic) {
                        self.i += 1;
                    }
                    Json::Lit
                }
            }
        }
    }

    fn field<'a>(obj: &'a Json, key: &str) -> &'a Json {
        match obj {
            Json::Obj(fields) => &fields.iter().find(|(k, _)| k == key).expect(key).1,
            other => panic!("not an object: {other:?}"),
        }
    }

    fn declared(list: &str) -> BTreeMap<String, String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let root = Parser {
            s: text.as_bytes(),
            i: 0,
        }
        .value();
        let Json::Arr(items) = field(&root, list) else {
            panic!("{list} is not a list");
        };
        items
            .iter()
            .map(|m| match (field(m, "name"), field(m, "unit")) {
                (Json::Str(n), Json::Str(u)) => (n.clone(), u.clone()),
                other => panic!("bad metric entry {other:?}"),
            })
            .collect()
    }

    fn catalogued(list: &[(&str, &str)]) -> BTreeMap<String, String> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    }

    #[test]
    fn end_to_end_metrics_are_declared_with_their_units() {
        assert_eq!(declared("end_to_end"), catalogued(END_TO_END));
    }

    #[test]
    fn per_layer_metrics_and_overheads_are_declared_with_their_units() {
        let mut printed = catalogued(PER_LAYER);
        for (name, unit) in END_TO_END {
            printed.insert(format!("{OVERHEAD_PREFIX}{name}"), unit.to_string());
        }
        assert_eq!(declared("per_layer"), printed);
    }

    #[test]
    fn units_resolve_for_every_printed_name() {
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert_eq!(unit_of(name), Some(*unit), "{name}");
        }
        assert_eq!(unit_of("overhead.slot_ms_p50"), Some("ms"));
        assert_eq!(unit_of("overhead.sim.step_ms"), None);
        assert_eq!(unit_of("nope"), None);
    }
}
