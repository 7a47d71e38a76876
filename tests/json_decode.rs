//! JSON string decoding on the serve answer path: exact round trips of
//! large, escape-dense payloads through the `serde_json` shim, and a
//! linearity guard on the decoder.
//!
//! A decoder that re-validates the rest of its input per character is
//! quadratic: a fig4 reply (~12 KB) then costs milliseconds to decode,
//! and a 4 MiB string takes hours. The guard below fails fast on that
//! shape instead of hanging the suite.

use membw::runner::persist;
use membw::service::{source, ServiceResponse};
use membw_serve::ResultStore;
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Every character class the encoder escapes or passes through, each
/// piece placed so multi-byte UTF-8 sits directly against escapes and
/// quotes.
const PIECES: &[&str] = &[
    "plain ascii run ",
    "\"é\"",  // 2-byte char between quotes
    "\\€\\",  // 3-byte char between backslashes
    "\n😀\r", // 4-byte char between newline escapes
    "\t",
    "/",
    "\u{0}\u{1}\u{8}\u{b}\u{c}\u{1f}", // controls: \u00XX escapes
    "é\"€\\😀\n",
    "\u{7f}ÿ\u{80}\u{7ff}\u{800}\u{ffff}\u{10000}\u{10ffff}",
    "  | 64B  286  302  623 |\n",
];

/// A string of at least `min_len` bytes cycling through [`PIECES`].
fn escape_dense(min_len: usize) -> String {
    let mut s = String::with_capacity(min_len + 64);
    let mut i = 0;
    while s.len() < min_len {
        s.push_str(PIECES[i % PIECES.len()]);
        i += 1;
    }
    s
}

/// A fig4-sized reply body: ~12 KB of table and plot text.
fn fig4_sized_stdout() -> String {
    let mut s = String::new();
    for bench in ["compress", "eqntott", "swm"] {
        s.push_str(&format!(
            "Figure 4 ({bench}): traffic in KB vs cache/MTC size\n{}\n",
            "-".repeat(116)
        ));
        for row in 0..17 {
            s.push_str(&format!(
                "{:>5}  {:>9}  {:>9}  {:>10}  {:>10}  {:>10}  {:>11}  {:>18}  {:>18}\n",
                format!("{}KB", 1 << (row % 11)),
                286 + row,
                302 + row,
                623 - row,
                1200 + row,
                2353,
                4659,
                249,
                228
            ));
        }
        s.push('\n');
    }
    while s.len() < 12 * 1024 {
        s.push_str("         |V   V   V   V   V   A   A      1   2   2                        \n");
    }
    s
}

#[test]
fn mebibyte_escape_dense_string_round_trips_exactly() {
    let s = escape_dense(1 << 20);
    assert!(s.len() >= 1 << 20);
    let text = serde_json::to_string(&s).expect("encode");
    // Every control character left the encoder escaped.
    assert!(
        !text.bytes().any(|b| b < 0x20),
        "raw control byte in JSON text"
    );
    assert!(text.contains("\\u0000") && text.contains("\\u001f"));
    let back: String = serde_json::from_str(&text).expect("decode");
    assert_eq!(back, s);
}

#[test]
fn every_escape_form_decodes_next_to_multibyte_text() {
    // Forms the encoder never emits (`\/`, `\b`, `\f`, `\u` above
    // U+001F, uppercase hex, lone surrogates) must decode too.
    let text = r#""é\/€\b😀\fé€\"😀\\\ud83dA\u00C9é""#;
    let back: String = serde_json::from_str(text).expect("decode");
    assert_eq!(back, "é/€\u{8}😀\u{c}é€\"😀\\\u{fffd}AÉé");
    for bad in [r#""é\q""#, r#""\u12""#, r#""\u12G4""#, r#""€"#, r#""\"#] {
        assert!(serde_json::from_str::<String>(bad).is_err(), "{bad}");
    }
}

#[test]
fn fig4_sized_reply_and_store_entry_round_trip() {
    let stdout = fig4_sized_stdout();
    assert!(stdout.len() >= 12 * 1024);
    let resp = ServiceResponse::Ok {
        target: "fig4".to_string(),
        scale: "test".to_string(),
        sweep: "stack".to_string(),
        source: source::STORE.to_string(),
        fnv64: format!("{:016x}", persist::fnv64(&stdout)),
        jobs: 0,
        resumed: 0,
        model: None,
        bound_rel_permille: None,
        stdout: stdout.clone(),
    };
    let line = serde_json::to_string(&resp).expect("encode reply");
    let back: ServiceResponse = serde_json::from_str(&line).expect("decode reply");
    assert_eq!(back, resp);
    assert_eq!(serde_json::to_string(&back).expect("re-encode"), line);

    let dir = std::env::temp_dir().join(format!("membw_json_decode_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).expect("open store");
    let key = "fig4|test|stack";
    store.save(key, &stdout).expect("save");
    assert_eq!(store.load(key).as_deref(), Some(stdout.as_str()));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn decoding_is_linear_in_the_string_length() {
    let s = escape_dense(4 << 20);
    let text = serde_json::to_string(&s).expect("encode");

    // Linear reference: one copy-and-validate pass over the same text,
    // best of three.
    let linear = (0..3)
        .map(|_| {
            let t0 = Instant::now();
            let copy = String::from_utf8(std::hint::black_box(text.as_bytes()).to_vec());
            std::hint::black_box(copy.expect("valid utf-8"));
            t0.elapsed()
        })
        .min()
        .expect("three samples");
    // 200x the linear pass, floored at 2 s for timer noise on loaded
    // hosts. A quadratic decoder needs hours here.
    let bound = (linear * 200).max(Duration::from_secs(2));

    let (tx, rx) = mpsc::channel();
    let expected_len = s.len();
    std::thread::spawn(move || {
        let t0 = Instant::now();
        let back: String = serde_json::from_str(&text).expect("decode");
        let _ = tx.send((t0.elapsed(), back.len()));
    });
    match rx.recv_timeout(bound) {
        Ok((took, len)) => {
            assert_eq!(len, expected_len);
            assert!(took <= bound, "decode took {took:?}, bound {bound:?}");
        }
        Err(_) => panic!(
            "decoding a {} MiB string took longer than {bound:?} (linear pass: {linear:?}): \
             the decoder is not linear",
            expected_len >> 20
        ),
    }
}
