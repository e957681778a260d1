//! The output check every pass must pass: the results file's `stats`
//! block is recomputed from its own `txs` rows, and its bytes are
//! digested so passes of one run can be compared.
//!
//! The scanner is the benchmark's own (it does not use the program's
//! JSON reader), so a fault in the program's serializer or parser cannot
//! hide itself.

/// What a results file that passed the check yields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checked {
    /// Digest of the whole file.
    pub digest: u64,
    /// The store's final root (`storage.root`), when the run persisted.
    pub store_root: Option<String>,
}

/// Statuses the results file may carry. `pending` is the record of a
/// transaction still undecided at the run's deadline — the paper counts
/// it as not committed — and, like the others, it is final.
const STATUSES: [&str; 7] = [
    "pending",
    "committed",
    "dropped-pool-full",
    "dropped-per-sender",
    "dropped-expired",
    "aborted",
    "rejected",
];

/// The key of the row array.
const ROWS_KEY: &[u8] = b"\"txs\":[";

/// A 64-bit FNV-1a-style digest over 8-byte words: fast enough for a
/// 40 MB results file, and stable across processes.
pub fn digest(bytes: &[u8]) -> u64 {
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ bytes.len() as u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        h = (h ^ u64::from_le_bytes(w.try_into().expect("8-byte chunk"))).wrapping_mul(PRIME);
    }
    for &b in words.remainder() {
        h = (h ^ u64::from(b)).wrapping_mul(PRIME);
    }
    h
}

/// Checks a results file against its own rows and the planned count.
pub fn check_results(text: &[u8], planned: u64) -> Result<Checked, String> {
    // Every section the check reads precedes the rows, so the header
    // searches never walk the (large) row array.
    let rows_at = find(text, ROWS_KEY).ok_or("no txs rows")?;
    let header = &text[..rows_at];
    let stats = Stats::parse(header)?;
    let rows = Rows::scan(text, rows_at + ROWS_KEY.len())?;
    let sent = rows.sent;
    if stats.int("sent")? != sent {
        return Err(format!("stats.sent {} but {sent} rows", stats.int("sent")?));
    }
    if sent != planned {
        return Err(format!("{sent} rows but {planned} transactions planned"));
    }
    let committed = rows.latencies_us.len() as u64;
    if stats.int("committed")? != committed {
        return Err(format!(
            "stats.committed {} but {committed} committed rows",
            stats.int("committed")?
        ));
    }
    let ratio = if sent == 0 {
        0.0
    } else {
        committed as f64 / sent as f64
    };
    stats.close("commitRatio", ratio, 6)?;
    // Same summation order and units as the program's own average, so
    // only its printed rounding separates the two.
    let secs = |us: u64| us as f64 / 1e6;
    let avg = if committed == 0 {
        0.0
    } else {
        rows.latencies_us.iter().map(|&l| secs(l)).sum::<f64>() / committed as f64
    };
    stats.close("avgLatency", avg, 3)?;
    let mut sorted = rows.latencies_us.clone();
    sorted.sort_unstable();
    // Nearest-rank median, 0 when nothing committed.
    let median = match sorted.len() {
        0 => 0.0,
        n => secs(sorted[n.div_ceil(2) - 1]),
    };
    stats.close("medianLatency", median, 3)?;
    stats.close("maxLatency", secs(sorted.last().copied().unwrap_or(0)), 3)?;
    Ok(Checked {
        digest: digest(text),
        store_root: store_root(header)?,
    })
}

/// The flat `"stats":{...}` object: field name → raw value text.
struct Stats<'a> {
    fields: Vec<(&'a str, &'a str)>,
}

impl<'a> Stats<'a> {
    fn parse(text: &'a [u8]) -> Result<Stats<'a>, String> {
        let body = object_after(text, b"\"stats\":{")?;
        let fields = body
            .split(',')
            .map(|kv| {
                let (k, v) = kv.split_once(':').ok_or("malformed stats field")?;
                Ok((k.trim_matches('"'), v))
            })
            .collect::<Result<_, String>>()?;
        Ok(Stats { fields })
    }

    fn raw(&self, name: &str) -> Result<&'a str, String> {
        self.fields
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| *v)
            .ok_or_else(|| format!("stats.{name} missing"))
    }

    fn int(&self, name: &str) -> Result<u64, String> {
        self.raw(name)?
            .parse()
            .map_err(|_| format!("stats.{name} is not a count"))
    }

    /// Checks that the printed `name` equals `expected` up to the
    /// rounding of its `decimals` printed digits.
    fn close(&self, name: &str, expected: f64, decimals: i32) -> Result<(), String> {
        let got: f64 = self
            .raw(name)?
            .parse()
            .map_err(|_| format!("stats.{name} is not a number"))?;
        if (got - expected).abs() > 0.5 * 10f64.powi(-decimals) + 1e-9 {
            return Err(format!("stats.{name} {got} but the rows give {expected}"));
        }
        Ok(())
    }
}

/// The text of the flat object that follows `key` (which ends in `{`).
fn object_after<'a>(text: &'a [u8], key: &[u8]) -> Result<&'a str, String> {
    let key_text = String::from_utf8_lossy(key);
    let start = find(text, key).ok_or_else(|| format!("no {key_text} section"))? + key.len();
    let len = text[start..]
        .iter()
        .position(|&b| b == b'}')
        .ok_or_else(|| format!("unterminated {key_text} section"))?;
    std::str::from_utf8(&text[start..start + len]).map_err(|_| format!("{key_text} is not UTF-8"))
}

fn find(hay: &[u8], needle: &[u8]) -> Option<usize> {
    hay.windows(needle.len()).position(|w| w == needle)
}

fn store_root(text: &[u8]) -> Result<Option<String>, String> {
    if find(text, b"\"storage\":{").is_none() {
        return Ok(None);
    }
    let storage = object_after(text, b"\"storage\":{")?;
    let root = storage
        .split(',')
        .find_map(|kv| kv.strip_prefix("\"root\":"))
        .ok_or("storage section without a root")?;
    Ok(Some(root.trim_matches('"').to_string()))
}

/// What the `txs` rows say.
struct Rows {
    sent: u64,
    /// Commit latency of every committed row, in row order.
    latencies_us: Vec<u64>,
}

impl Rows {
    /// Scans `[submit,decided|null,"status"],...]` from `start`.
    fn scan(text: &[u8], start: usize) -> Result<Rows, String> {
        let mut c = Cursor { b: text, i: start };
        let mut rows = Rows {
            sent: 0,
            latencies_us: Vec::new(),
        };
        if c.peek() == Some(b']') {
            return Ok(rows);
        }
        loop {
            c.expect(b'[')?;
            let submitted = c.micros()?;
            c.expect(b',')?;
            let decided = if c.b[c.i..].starts_with(b"null") {
                c.i += 4;
                None
            } else {
                Some(c.micros()?)
            };
            c.expect(b',')?;
            let status = c.string()?;
            c.expect(b']')?;
            if !STATUSES.contains(&status) {
                return Err(format!("row {}: unknown status {status:?}", rows.sent));
            }
            match (status, decided) {
                ("committed", Some(d)) if d >= submitted => rows.latencies_us.push(d - submitted),
                ("committed", _) => {
                    return Err(format!(
                        "row {}: committed without a later decision",
                        rows.sent
                    ))
                }
                ("pending", Some(_)) => {
                    return Err(format!("row {}: pending but decided", rows.sent))
                }
                _ => {}
            }
            rows.sent += 1;
            match c.next()? {
                b',' => continue,
                b']' => return Ok(rows),
                other => return Err(format!("unexpected {:?} after a row", other as char)),
            }
        }
    }
}

struct Cursor<'a> {
    b: &'a [u8],
    i: usize,
}

impl<'a> Cursor<'a> {
    fn peek(&self) -> Option<u8> {
        self.b.get(self.i).copied()
    }

    fn next(&mut self) -> Result<u8, String> {
        let b = self.peek().ok_or("results file ends inside txs")?;
        self.i += 1;
        Ok(b)
    }

    fn expect(&mut self, want: u8) -> Result<(), String> {
        match self.next()? {
            b if b == want => Ok(()),
            b => Err(format!(
                "expected {:?}, found {:?} at byte {}",
                want as char, b as char, self.i
            )),
        }
    }

    /// A `seconds.micros` number (six decimals) as whole microseconds.
    fn micros(&mut self) -> Result<u64, String> {
        let mut whole = 0u64;
        let mut frac = 0u64;
        let mut frac_digits = None;
        while let Some(b) = self.peek() {
            match (b, frac_digits.as_mut()) {
                (b'0'..=b'9', None) => whole = whole * 10 + u64::from(b - b'0'),
                (b'0'..=b'9', Some(n)) => {
                    frac = frac * 10 + u64::from(b - b'0');
                    *n += 1;
                }
                (b'.', None) => frac_digits = Some(0),
                _ => break,
            }
            self.i += 1;
        }
        match frac_digits {
            Some(6) => Ok(whole * 1_000_000 + frac),
            _ => Err(format!("malformed time before byte {}", self.i)),
        }
    }

    fn string(&mut self) -> Result<&'a str, String> {
        self.expect(b'"')?;
        let len = self.b[self.i..]
            .iter()
            .position(|&b| b == b'"')
            .ok_or("unterminated string")?;
        let s = std::str::from_utf8(&self.b[self.i..self.i + len]).map_err(|e| e.to_string())?;
        self.i += len + 1;
        Ok(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GOOD: &str = "{\"chain\":\"Quorum\",\"workload\":\"w\",\"duration\":1.000,\
        \"stats\":{\"sent\":3,\"committed\":2,\"commitRatio\":0.666667,\
        \"avgThroughput\":2.000,\"avgLatency\":1.500,\"medianLatency\":1.000,\
        \"maxLatency\":2.000},\"storage\":{\"mode\":\"full\",\"root\":\"ab12\",\"txs\":2},\
        \"txs\":[[0.000000,1.000000,\"committed\"],[0.500000,2.500000,\"committed\"],\
        [0.900000,null,\"pending\"]]}";

    #[test]
    fn a_consistent_file_passes() {
        let checked = check_results(GOOD.as_bytes(), 3).unwrap();
        assert_eq!(checked.store_root.as_deref(), Some("ab12"));
        assert_eq!(checked.digest, digest(GOOD.as_bytes()));
    }

    #[test]
    fn every_stats_field_is_checked() {
        for (from, to) in [
            ("\"sent\":3", "\"sent\":4"),
            ("\"committed\":2", "\"committed\":1"),
            ("0.666667", "0.666669"),
            ("\"avgLatency\":1.500", "\"avgLatency\":1.502"),
            ("\"medianLatency\":1.000", "\"medianLatency\":2.000"),
            ("\"maxLatency\":2.000", "\"maxLatency\":2.500"),
        ] {
            let bad = GOOD.replace(from, to);
            assert!(check_results(bad.as_bytes(), 3).is_err(), "{to} passed");
        }
    }

    #[test]
    fn rows_must_match_the_plan_and_be_well_formed() {
        assert!(check_results(GOOD.as_bytes(), 4).is_err());
        let unknown = GOOD.replace("\"pending\"", "\"lost\"");
        assert!(check_results(unknown.as_bytes(), 3).is_err());
        let decided_pending = GOOD.replace("0.900000,null", "0.900000,1.000000");
        assert!(check_results(decided_pending.as_bytes(), 3).is_err());
        let truncated = &GOOD[..GOOD.len() - 3];
        assert!(check_results(truncated.as_bytes(), 3).is_err());
    }

    #[test]
    fn digest_sees_every_byte() {
        assert_ne!(digest(b"abcdefghi"), digest(b"abcdefghj"));
        assert_ne!(digest(b"abcdefgh"), digest(b"abcdefgh\0"));
    }
}
