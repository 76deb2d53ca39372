//! Clean control: every variant named in every codec fn.
//! Expected: no violations.

pub enum Frame {
    Ping,
    Pong,
}

impl Frame {
    fn encode(&self) -> u8 {
        match self {
            Frame::Ping => 0,
            Frame::Pong => 1,
        }
    }

    fn decode(code: u8) -> Option<Frame> {
        match code {
            0 => Some(Frame::Ping),
            1 => Some(Frame::Pong),
            _ => None,
        }
    }
}
