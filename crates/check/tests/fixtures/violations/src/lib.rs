//! Fixture library that violates every rule at least once. Line numbers
//! matter: the self-tests assert exact `file:line` locations.

// Missing #![forbid(unsafe_code)] → forbid-unsafe-everywhere at line 1.

/// An error type with no Display / Error impls →
/// error-enums-impl-error.
pub enum FixtureError {
    /// Something broke.
    Broken,
}

/// Unwrap in library code → no-unwrap-in-lib (three findings).
pub fn unwraps(x: Option<u32>, y: Result<u32, u32>) -> u32 {
    let a = x.unwrap();
    let b = y.expect("fixture");
    let c = y.expect_err("fixture");
    a + b + c
}

/// Wall-clock reads → no-wallclock-in-deterministic (two findings).
pub fn wallclock() -> std::time::Instant {
    let _ = std::time::SystemTime::now();
    std::time::Instant::now()
}

/// Printing from library code → no-println-in-lib (two findings).
pub fn noisy() {
    println!("fixture");
    dbg!(42);
}

/// A string mentioning .unwrap() must NOT trip the lexer-based rule,
/// and neither must an identifier merely named unwrap.
pub fn decoys() -> &'static str {
    let unwrap = 1;
    let _ = unwrap + 1;
    "call .unwrap() here"
}

/// An untraced fabric send → no-untraced-fabric-send (one finding, at
/// the construction below).
pub fn untraced_send(to: u32, link: u32) -> (u32, u32) {
    let ev = Deliver { to, link };
    (ev.to, ev.link)
}

/// The event type itself carries ctx, so its definition passes.
pub struct Deliver {
    /// Destination node.
    pub to: u32,
    /// Delivery link.
    pub link: u32,
    /// Trace context word.
    pub ctx: u64,
}

#[cfg(test)]
mod tests {
    /// Unwraps, prints and untraced Delivers inside #[cfg(test)] are
    /// all exempt.
    #[test]
    fn test_code_is_exempt() {
        struct Deliver {
            to: u32,
        }
        let ev = Deliver { to: 1 };
        let x: Option<u32> = Some(1);
        assert_eq!(x.unwrap(), ev.to);
        println!("test output is fine");
    }
}

/// A bare allow directive with no reason clause → allow-without-reason
/// (one finding, at the directive's own line). It still suppresses the
/// unwrap it covers.
pub fn bare_allow(x: Option<u32>) -> u32 {
    // check: allow(no-unwrap-in-lib)
    x.unwrap()
}

/// A reasoned directive is not a finding — and still suppresses.
pub fn reasoned_allow(x: Option<u32>) -> u32 {
    // check: allow(no-unwrap-in-lib, reason = "fixture: reasoned suppressions are not findings")
    x.unwrap()
}

/// A directive naming no rule (say, one a later PR deleted) suppresses
/// nothing → allow-without-reason (one finding, at the directive).
pub fn stale_allow(x: u32) -> u32 {
    // check: allow(atomic-ordering-pairing, reason = "fixture: that rule no longer exists")
    x + 1
}
