//! Passes journal-precedes-mutation: every path reaching a raw session
//! mutator appends to the journal first — directly, through a caller, or
//! under a reasoned allow.
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

/// Direct guard: append precedes the mutation in the same body.
pub fn handle(s: &mut Session, j: &mut Journal, x: u32) -> u32 {
    j.append(x);
    s.admit(x)
}

/// Caller guard: the raw mutator lives in a helper whose every caller
/// appends before calling it.
fn apply(s: &mut Session, x: u32) -> u32 {
    s.release(x)
}

pub fn drop_flow(s: &mut Session, j: &mut Journal, x: u32) -> u32 {
    j.append(x);
    apply(s, x)
}

/// Recovery replays the journal; the mutation does not need re-guarding.
pub fn replay(s: &mut Session, x: u32) -> u32 {
    // check: allow(journal-precedes-mutation, reason = "fixture: replay applies already-journaled entries")
    s.admit(x)
}

/// A method merely named like a wrapper (`admit_flows`) is not a raw
/// mutator and needs no guard.
pub fn wrapper_name_decoy(s: &mut Session, x: u32) -> u32 {
    admit_flows(s, x)
}

fn admit_flows(s: &mut Session, x: u32) -> u32 {
    let _ = x;
    let _ = s;
    0
}
