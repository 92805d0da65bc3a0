//! A strict RFC 8259 parser for tests: what a downstream `json.loads` with
//! `parse_constant` raising would accept. No `NaN`/`Infinity` tokens, no
//! trailing commas, no raw control characters in strings, no duplicate keys,
//! nothing after the value. Shared by path (`#[path = ".."] mod`) with the
//! suites of other crates that check artifacts.

#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }
}

pub fn parse(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: text.as_bytes(),
        at: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.at != p.s.len() {
        return Err(p.err("trailing text"));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn err(&self, what: &str) -> String {
        format!("{what} at byte {}", self.at)
    }

    fn ws(&mut self) {
        while matches!(self.s.get(self.at), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> bool {
        let hit = self.s[self.at..].starts_with(lit.as_bytes());
        if hit {
            self.at += lit.len();
        }
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.s.get(self.at) {
            Some(b'n') if self.eat("null") => Ok(Json::Null),
            Some(b't') if self.eat("true") => Ok(Json::Bool(true)),
            Some(b'f') if self.eat("false") => Ok(Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                let mut items = Vec::new();
                self.seq("]", |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut members: Vec<(String, Json)> = Vec::new();
                self.seq("}", |p| {
                    p.ws();
                    let key = p.string()?;
                    if members.iter().any(|(k, _)| *k == key) {
                        return Err(p.err(&format!("duplicate key {key:?}")));
                    }
                    p.ws();
                    if !p.eat(":") {
                        return Err(p.err("expected :"));
                    }
                    members.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(members))
            }
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => Err(self.err("expected a value")),
        }
    }

    /// The comma-separated items of an array or object, up to `close`.
    fn seq(
        &mut self,
        close: &str,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.at += 1;
        self.ws();
        if self.eat(close) {
            return Ok(());
        }
        loop {
            item(self)?;
            self.ws();
            if self.eat(close) {
                return Ok(());
            }
            if !self.eat(",") {
                return Err(self.err("expected , or the closing bracket"));
            }
        }
    }

    fn digits(&mut self) -> usize {
        let from = self.at;
        while matches!(self.s.get(self.at), Some(b'0'..=b'9')) {
            self.at += 1;
        }
        self.at - from
    }

    fn number(&mut self) -> Result<Json, String> {
        let from = self.at;
        self.eat("-");
        let leading_zero = self.s.get(self.at) == Some(&b'0');
        let int = self.digits();
        if int == 0 || (leading_zero && int > 1) {
            return Err(self.err("bad integer part"));
        }
        if self.eat(".") && self.digits() == 0 {
            return Err(self.err("bad fraction"));
        }
        if self.eat("e") || self.eat("E") {
            let _ = self.eat("+") || self.eat("-");
            if self.digits() == 0 {
                return Err(self.err("bad exponent"));
            }
        }
        let text = std::str::from_utf8(&self.s[from..self.at]).expect("ascii");
        text.parse()
            .map(Json::Num)
            .map_err(|e| self.err(&format!("{e}")))
    }

    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(self.err("expected a string"));
        }
        let mut units: Vec<u16> = Vec::new(); // UTF-16, so \u surrogate pairs join
        loop {
            let rest = std::str::from_utf8(&self.s[self.at..]).map_err(|e| e.to_string())?;
            let c = rest.chars().next().ok_or_else(|| self.err("open string"))?;
            self.at += c.len_utf8();
            match c {
                '"' => return String::from_utf16(&units).map_err(|e| self.err(&e.to_string())),
                '\\' => {
                    let esc = *self.s.get(self.at).ok_or_else(|| self.err("open escape"))?;
                    self.at += 1;
                    let unit = match esc {
                        b'"' | b'\\' | b'/' => esc as u16,
                        b'b' => 8,
                        b'f' => 12,
                        b'n' => 10,
                        b'r' => 13,
                        b't' => 9,
                        b'u' => {
                            let hex = self.s.get(self.at..self.at + 4);
                            let hex = hex.and_then(|h| std::str::from_utf8(h).ok());
                            let unit = hex.and_then(|h| u16::from_str_radix(h, 16).ok());
                            self.at += 4;
                            unit.ok_or_else(|| self.err("bad \\u escape"))?
                        }
                        _ => return Err(self.err("unknown escape")),
                    };
                    units.push(unit);
                }
                c if (c as u32) < 0x20 => return Err(self.err("raw control character")),
                c => units.extend(c.encode_utf16(&mut [0; 2]).iter()),
            }
        }
    }
}
