//! Violates journal-precedes-mutation: raw session mutators reachable
//! from entry points with no journal append on the path. Line numbers
//! matter — the self-tests assert exact locations.
#![forbid(unsafe_code)]
pub struct Session;

impl Session {
    pub fn admit(&mut self, x: u32) -> u32 {
        x
    }
    pub fn release(&mut self, x: u32) -> u32 {
        x
    }
}

pub struct Journal;

impl Journal {
    pub fn append(&mut self, x: u32) -> u32 {
        x
    }
}

/// Direct unjournaled mutation → finding at the admit call (line 26).
pub fn handle(s: &mut Session, x: u32) -> u32 {
    s.admit(x)
}

/// The helper's caller never appends either → finding at the raw
/// release call inside the helper (line 32).
fn apply(s: &mut Session, x: u32) -> u32 {
    s.release(x)
}

/// An entry that reaches `apply` without journaling.
pub fn drop_flow(s: &mut Session, x: u32) -> u32 {
    apply(s, x)
}

/// Appending AFTER the mutation does not guard it → finding at the
/// admit call (line 43).
pub fn too_late(s: &mut Session, j: &mut Journal, x: u32) -> u32 {
    let got = s.admit(x);
    j.append(got);
    got
}

fn journal(j: &mut Journal, x: u32) {
    j.append(x);
}

/// Journals through a wrapper before mutating: guarded in its own body.
fn admit_flows(s: &mut Session, j: &mut Journal, x: u32) -> u32 {
    journal(j, x);
    s.admit(x)
}

/// Mutates before journaling → finding at the release call (line 62).
/// The dispatcher's earlier `admit_flows` arm appends, but that arm never
/// runs before this one.
fn release_flow(s: &mut Session, j: &mut Journal, x: u32) -> u32 {
    let got = s.release(x);
    journal(j, x);
    got
}

/// A request dispatcher with one arm per request kind.
pub fn process(s: &mut Session, j: &mut Journal, admit: bool, x: u32) -> u32 {
    match admit {
        true => admit_flows(s, j, x),
        false => release_flow(s, j, x),
    }
}
