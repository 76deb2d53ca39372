//! Seeded violation: an `AlgorithmSpec` variant added without a decode
//! arm. `decode_wire` hides `Agreement` behind a wildcard — the exact
//! hazard inference guards across `scheduler::factory` and
//! `scheduler::wire` in the workspace, reproduced here in one file so
//! the binary can be pointed at it. Expected: 1 × wire-completeness.

pub enum AlgorithmSpec {
    Flood { initiator: usize },
    Election,
    Agreement { inputs: u64 },
}

impl AlgorithmSpec {
    pub fn encode_wire(&self, out: &mut Vec<u8>) {
        match self {
            AlgorithmSpec::Flood { initiator } => {
                out.push(0);
                out.push(*initiator as u8);
            }
            AlgorithmSpec::Election => out.push(1),
            AlgorithmSpec::Agreement { inputs } => {
                out.push(2);
                out.extend_from_slice(&inputs.to_le_bytes());
            }
        }
    }

    pub fn decode_wire(buf: &[u8]) -> Option<AlgorithmSpec> {
        match buf.first()? {
            0 => Some(AlgorithmSpec::Flood {
                initiator: usize::from(*buf.get(1)?),
            }),
            _ => Some(AlgorithmSpec::Election),
        }
    }
}
