//! Property test: `read_request` never panics on an arbitrary byte stream,
//! however the bytes are paced, and always returns within its deadline.

use pim_serve::http::read_request;
use proptest::prelude::*;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// The whole-request deadline each case reads under.
const DEADLINE: Duration = Duration::from_millis(100);
/// Scheduling slack on a loaded host: how late past the deadline a read
/// may still return.
const SLACK: Duration = Duration::from_millis(900);

/// Well-formed request heads the arbitrary bytes are appended to, so the
/// header and body paths are reached too, not only the request line.
const PREFIXES: [&str; 3] = [
    "",
    "POST /v1/jobs HTTP/1.1\r\n",
    "POST /v1/jobs HTTP/1.1\r\nContent-Length: 64\r\n\r\n",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn read_request_returns_within_its_deadline(
        prefix in 0usize..3,
        tail in proptest::collection::vec(any::<u8>(), 0..2048),
        chunk in 1usize..256,
        gap_ms in 0u64..30,
        hold_open in any::<bool>(),
    ) {
        let mut bytes = PREFIXES[prefix].as_bytes().to_vec();
        bytes.extend_from_slice(&tail);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let writer = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).unwrap();
            for piece in bytes.chunks(chunk) {
                if stream.write_all(piece).is_err() {
                    return; // the reader hung up
                }
                std::thread::sleep(Duration::from_millis(gap_ms));
            }
            if hold_open {
                // Keep the connection open until the reader closes it.
                let _ = stream.read(&mut [0u8; 1]);
            }
        });
        let (stream, _) = listener.accept().unwrap();
        let start = Instant::now();
        let parsed = read_request(&stream, DEADLINE);
        let elapsed = start.elapsed();
        drop(stream);
        writer.join().unwrap();
        prop_assert!(
            elapsed < DEADLINE + SLACK,
            "returned after {elapsed:?} with {parsed:?}"
        );
    }
}
