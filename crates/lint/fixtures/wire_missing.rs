//! Seeded violation: a codec arm forgotten after adding a variant.
//! `decode` hides `Data` behind a wildcard arm — exactly the bug class
//! the pass exists for. Expected: 1 × wire-completeness.

pub enum Frame {
    Ping,
    Pong,
    Data(Vec<u8>),
}

impl Frame {
    fn encode(&self) -> u8 {
        match self {
            Frame::Ping => 0,
            Frame::Pong => 1,
            Frame::Data(_) => 2,
        }
    }

    fn decode(code: u8) -> Frame {
        match code {
            0 => Frame::Ping,
            _ => Frame::Pong,
        }
    }
}
