//! The result object: the last line of standard output, also saved to a
//! file under `perfbench/out/`.

use std::fmt::Write as _;

/// One named measurement.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value as measured.
    pub value: f64,
    /// Unit label.
    pub unit: String,
}

/// Everything one run reports.
#[derive(Clone, Debug, PartialEq)]
pub struct Report {
    /// Whether every checked output matched its reference.
    pub correct: bool,
    /// Operations attempted: passes over the workload (warm-up included)
    /// and the traced run's extra checks.
    pub attempted: u64,
    /// Operations that failed, were refused, or produced a mismatch.
    pub failed: u64,
    /// The metrics, in output order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Adds a metric. A value that is not finite is recorded as a failed
    /// operation and reported as 0, so the output stays valid JSON.
    pub fn push(&mut self, name: &str, value: f64, unit: &str) {
        let value = if value.is_finite() {
            value
        } else {
            self.failed += 1;
            self.correct = false;
            0.0
        };
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
    }

    /// One-line JSON with the keys `correct`, `attempted`, `failed` and
    /// `metrics` (name -> `{"value", "unit"}`). Values print with every
    /// digit `f64` holds.
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            if i > 0 {
                s.push_str(", ");
            }
            let _ = write!(
                s,
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader for exactly the shape `to_json` writes; enough to prove
    /// the file round-trips and is JSON a strict parser accepts.
    struct Reader<'a> {
        s: &'a [u8],
        at: usize,
    }

    impl Reader<'_> {
        fn ws(&mut self) {
            while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
                self.at += 1;
            }
        }
        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.s[self.at] as char, c as char, "at byte {}", self.at);
            self.at += 1;
        }
        fn peek(&mut self) -> u8 {
            self.ws();
            self.s[self.at]
        }
        fn string(&mut self) -> String {
            self.eat(b'"');
            let start = self.at;
            while self.s[self.at] != b'"' {
                assert_ne!(self.s[self.at], b'\\', "no escapes are written");
                self.at += 1;
            }
            self.at += 1;
            String::from_utf8(self.s[start..self.at - 1].to_vec()).unwrap()
        }
        fn token(&mut self) -> String {
            self.ws();
            let start = self.at;
            while !b",}] \n".contains(&self.s[self.at]) {
                self.at += 1;
            }
            String::from_utf8(self.s[start..self.at].to_vec()).unwrap()
        }
        fn report(&mut self) -> Report {
            let mut r = Report {
                correct: false,
                attempted: 0,
                failed: 0,
                metrics: Vec::new(),
            };
            self.eat(b'{');
            loop {
                match self.string().as_str() {
                    "correct" => {
                        self.eat(b':');
                        r.correct = self.token().parse().unwrap();
                    }
                    "attempted" => {
                        self.eat(b':');
                        r.attempted = self.token().parse().unwrap();
                    }
                    "failed" => {
                        self.eat(b':');
                        r.failed = self.token().parse().unwrap();
                    }
                    "metrics" => {
                        self.eat(b':');
                        self.eat(b'{');
                        while self.peek() != b'}' {
                            let name = self.string();
                            self.eat(b':');
                            self.eat(b'{');
                            assert_eq!(self.string(), "value");
                            self.eat(b':');
                            let value = self.token().parse().unwrap();
                            self.eat(b',');
                            assert_eq!(self.string(), "unit");
                            self.eat(b':');
                            let unit = self.string();
                            self.eat(b'}');
                            r.metrics.push(Metric { name, value, unit });
                            if self.peek() == b',' {
                                self.eat(b',');
                            }
                        }
                        self.eat(b'}');
                    }
                    other => panic!("unexpected key {other}"),
                }
                if self.peek() == b'}' {
                    break;
                }
                self.eat(b',');
            }
            self.eat(b'}');
            self.ws();
            assert_eq!(self.at, self.s.len(), "trailing bytes");
            r
        }
    }

    fn parse(json: &str) -> Report {
        Reader {
            s: json.as_bytes(),
            at: 0,
        }
        .report()
    }

    #[test]
    fn result_file_round_trips_every_digit() {
        let mut r = Report {
            correct: true,
            attempted: 23,
            failed: 0,
            metrics: Vec::new(),
        };
        r.push("acc_per_s", 1_534_278.123_456_789_1, "1/s");
        r.push("setup_s", 0.812_700_000_000_1, "s");
        r.push("chunk_ms_p90", 1e-7, "ms");
        r.push("allocs_per_kacc", 3.0, "1/kacc");
        let dir = std::env::temp_dir().join(format!("perfbench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("result.json");
        std::fs::write(&path, r.to_json() + "\n").unwrap();
        let back = parse(&std::fs::read_to_string(&path).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(back, r);
        assert!(!r.to_json().contains('\n'), "one line");
    }

    #[test]
    fn non_finite_values_fail_the_run_and_print_as_zero() {
        let mut r = Report {
            correct: true,
            attempted: 1,
            failed: 0,
            metrics: Vec::new(),
        };
        r.push("x", f64::NAN, "s");
        assert!(!r.correct);
        assert_eq!(r.failed, 1);
        assert_eq!(parse(&r.to_json()).metrics[0].value, 0.0);
    }
}
