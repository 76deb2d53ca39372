//! The communication backup (§1, §5): movement signals as a failover for
//! faulty wireless devices.
//!
//! "In the context of robots communicating by means of communication
//! (e.g., wireless), since our protocols allow robots to explicitly
//! communicate even if their communication devices are faulty, our
//! solution can serve as a communication backup." This module makes that
//! claim executable: a [`Wireless`] channel that can lose, corrupt, or
//! permanently fail; CRC-8 integrity so corruption is *detected*; and
//! [`BackupChannel`], which falls back to a movement-signal
//! [`SyncNetwork`] whenever the wireless path fails. Experiment E5
//! measures the failover overhead.

use crate::session::SyncNetwork;
use crate::CoreError;
use stigmergy_coding::checksum::{protect, verify};
use stigmergy_geometry::Point;
use stigmergy_scheduler::rng::SplitMix64;

/// Outcome of one wireless transmission attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Delivery {
    /// The frame arrived (possibly corrupted — integrity is the
    /// receiver's problem).
    Arrived(Vec<u8>),
    /// The frame vanished (sender sees a timeout).
    Lost,
}

/// A channel that moves bytes point-to-point.
pub trait Channel {
    /// Attempts to transmit `frame` from `from` to `to`.
    fn transmit(&mut self, from: usize, to: usize, frame: &[u8]) -> Delivery;
}

/// A simulated wireless device with seeded loss, bit-corruption, and
/// permanent failure.
#[derive(Debug, Clone)]
pub struct Wireless {
    rng: SplitMix64,
    loss_rate: f64,
    corruption_rate: f64,
    burst: usize,
    fail_after: Option<u64>,
    transmissions: u64,
}

impl Wireless {
    /// A perfectly reliable device.
    #[must_use]
    pub fn reliable(seed: u64) -> Self {
        Self::new(seed, 0.0, 0.0, None)
    }

    /// A device with the given per-transmission loss and corruption
    /// probabilities, optionally dying permanently after `fail_after`
    /// transmissions (every later transmission is lost). Corruption
    /// events flip one bit in one byte.
    ///
    /// # Panics
    ///
    /// Panics if a rate is outside `[0, 1]`.
    #[must_use]
    pub fn new(seed: u64, loss_rate: f64, corruption_rate: f64, fail_after: Option<u64>) -> Self {
        Self::noisy(seed, loss_rate, corruption_rate, 1, fail_after)
    }

    /// As [`Wireless::new`], but each corruption event flips one bit in
    /// each of `burst` **distinct** bytes of the frame (clamped to the
    /// frame length). A burst wider than a FEC interleaving block defeats
    /// single-symbol correction, which is what the hardened session's
    /// escalation path is tested against.
    ///
    /// # Panics
    ///
    /// Panics if a rate is outside `[0, 1]` or `burst` is zero.
    #[must_use]
    pub fn noisy(
        seed: u64,
        loss_rate: f64,
        corruption_rate: f64,
        burst: usize,
        fail_after: Option<u64>,
    ) -> Self {
        assert!((0.0..=1.0).contains(&loss_rate), "loss rate in [0,1]");
        assert!(
            (0.0..=1.0).contains(&corruption_rate),
            "corruption rate in [0,1]"
        );
        assert!(burst > 0, "burst must corrupt at least one byte");
        Self {
            rng: SplitMix64::new(seed),
            loss_rate,
            corruption_rate,
            burst,
            fail_after,
            transmissions: 0,
        }
    }

    /// Total transmissions attempted.
    #[must_use]
    pub fn transmissions(&self) -> u64 {
        self.transmissions
    }

    /// Whether the device has permanently failed.
    #[must_use]
    pub fn is_dead(&self) -> bool {
        self.fail_after.is_some_and(|f| self.transmissions >= f)
    }
}

impl Channel for Wireless {
    fn transmit(&mut self, _from: usize, _to: usize, frame: &[u8]) -> Delivery {
        let dead = self.is_dead();
        self.transmissions += 1;
        if dead || self.rng.chance(self.loss_rate) {
            return Delivery::Lost;
        }
        let mut data = frame.to_vec();
        if !data.is_empty() && self.rng.chance(self.corruption_rate) {
            // Partial Fisher–Yates: the first `burst` entries of `order`
            // are distinct byte indices, so a burst never cancels itself
            // by flipping the same bit twice.
            let mut order: Vec<usize> = (0..data.len()).collect();
            for k in 0..self.burst.min(data.len()) {
                let j = k + self.rng.below(order.len() - k);
                order.swap(k, j);
                let bit = self.rng.below(8);
                data[order[k]] ^= 1 << bit;
            }
        }
        Delivery::Arrived(data)
    }
}

/// How a message ultimately got through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Delivered over wireless, integrity verified.
    Wireless,
    /// Delivered by movement signals after a wireless loss (timeout).
    MovementAfterLoss,
    /// Delivered by movement signals after detected corruption.
    MovementAfterCorruption,
}

/// Failover statistics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BackupStats {
    /// Messages that went through over wireless.
    pub wireless_ok: u64,
    /// Fallbacks triggered by loss.
    pub fallback_loss: u64,
    /// Fallbacks triggered by detected corruption.
    pub fallback_corruption: u64,
    /// Movement-channel instants spent on fallbacks.
    pub movement_steps: u64,
}

impl BackupStats {
    /// Total fallbacks.
    #[must_use]
    pub fn fallbacks(&self) -> u64 {
        self.fallback_loss + self.fallback_corruption
    }
}

/// A fault-tolerant channel: wireless first, movement signals as backup.
#[derive(Debug)]
pub struct BackupChannel {
    wireless: Wireless,
    movement: SyncNetwork,
    fallback_budget: u64,
    stats: BackupStats,
}

impl BackupChannel {
    /// Builds a backup channel over the robots at `positions`.
    ///
    /// `fallback_budget` bounds the movement-channel instants per message.
    ///
    /// # Errors
    ///
    /// Fails on configurations the movement network rejects.
    pub fn new(
        wireless: Wireless,
        positions: Vec<Point>,
        seed: u64,
        fallback_budget: u64,
    ) -> Result<Self, CoreError> {
        Ok(Self {
            wireless,
            movement: SyncNetwork::anonymous_with_direction(positions, seed)?,
            fallback_budget,
            stats: BackupStats::default(),
        })
    }

    /// Sends `payload` from `from` to `to`, falling back to movement
    /// signals on wireless failure. Returns how it got through.
    ///
    /// # Errors
    ///
    /// * [`CoreError::Timeout`] if the movement fallback exhausts its
    ///   budget.
    /// * Validation errors from the movement network (bad indices).
    pub fn send(&mut self, from: usize, to: usize, payload: &[u8]) -> Result<Route, CoreError> {
        let framed = protect(payload);
        match self.wireless.transmit(from, to, &framed) {
            Delivery::Arrived(data) => match verify(&data) {
                Ok(received) if received == payload => {
                    self.stats.wireless_ok += 1;
                    Ok(Route::Wireless)
                }
                _ => {
                    self.stats.fallback_corruption += 1;
                    self.fallback(from, to, payload)?;
                    Ok(Route::MovementAfterCorruption)
                }
            },
            Delivery::Lost => {
                self.stats.fallback_loss += 1;
                self.fallback(from, to, payload)?;
                Ok(Route::MovementAfterLoss)
            }
        }
    }

    fn fallback(&mut self, from: usize, to: usize, payload: &[u8]) -> Result<(), CoreError> {
        self.movement.send(from, to, payload)?;
        let steps = self.movement.run_until_delivered(self.fallback_budget)?;
        self.stats.movement_steps += steps;
        Ok(())
    }

    /// Failover statistics so far.
    #[must_use]
    pub fn stats(&self) -> BackupStats {
        self.stats
    }

    /// The wireless device.
    #[must_use]
    pub fn wireless(&self) -> &Wireless {
        &self.wireless
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn square() -> Vec<Point> {
        vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
            Point::new(0.0, 10.0),
        ]
    }

    #[test]
    fn reliable_wireless_never_falls_back() {
        let mut ch = BackupChannel::new(Wireless::reliable(1), square(), 1, 10_000).unwrap();
        for i in 0..10u8 {
            let route = ch.send(0, 2, &[i]).unwrap();
            assert_eq!(route, Route::Wireless);
        }
        assert_eq!(ch.stats().wireless_ok, 10);
        assert_eq!(ch.stats().fallbacks(), 0);
        assert_eq!(ch.wireless().transmissions(), 10);
    }

    #[test]
    fn dead_device_uses_movement() {
        // Device dies immediately: every message goes by movement.
        let mut ch =
            BackupChannel::new(Wireless::new(2, 0.0, 0.0, Some(0)), square(), 2, 50_000).unwrap();
        let route = ch.send(1, 3, b"rescued").unwrap();
        assert_eq!(route, Route::MovementAfterLoss);
        assert_eq!(ch.stats().fallbacks(), 1);
        assert!(ch.stats().movement_steps > 0);
        assert!(ch.movement.inbox(3).contains(&(1, b"rescued".to_vec())));
    }

    #[test]
    fn corruption_is_detected_and_recovered() {
        // 100% corruption: CRC-8 flags every frame; payloads still arrive
        // via movement.
        let mut ch =
            BackupChannel::new(Wireless::new(3, 0.0, 1.0, None), square(), 3, 50_000).unwrap();
        let route = ch.send(0, 1, b"integrity").unwrap();
        assert_eq!(route, Route::MovementAfterCorruption);
        assert!(ch.movement.inbox(1).contains(&(0, b"integrity".to_vec())));
    }

    #[test]
    fn device_dying_mid_stream() {
        // First 3 transmissions fine, then the device dies.
        let mut ch =
            BackupChannel::new(Wireless::new(4, 0.0, 0.0, Some(3)), square(), 4, 50_000).unwrap();
        let mut routes = Vec::new();
        for i in 0..6u8 {
            routes.push(ch.send(0, 2, &[i]).unwrap());
        }
        assert_eq!(&routes[..3], &[Route::Wireless; 3]);
        assert_eq!(&routes[3..], &[Route::MovementAfterLoss; 3]);
        assert!(ch.wireless().is_dead());
        assert_eq!(ch.stats().wireless_ok, 3);
        assert_eq!(ch.stats().fallback_loss, 3);
    }

    #[test]
    fn lossy_channel_mixes_routes() {
        let mut ch =
            BackupChannel::new(Wireless::new(5, 0.4, 0.0, None), square(), 5, 50_000).unwrap();
        for i in 0..20u8 {
            ch.send(0, 1, &[i]).unwrap();
        }
        let s = ch.stats();
        assert!(s.wireless_ok > 0, "some should pass");
        assert!(s.fallback_loss > 0, "some should fall back");
        assert_eq!(s.wireless_ok + s.fallbacks(), 20);
    }

    #[test]
    fn movement_validation_errors_propagate() {
        let mut ch =
            BackupChannel::new(Wireless::new(6, 1.0, 0.0, None), square(), 6, 50_000).unwrap();
        assert!(matches!(
            ch.send(0, 99, b"x"),
            Err(CoreError::UnknownDestination { .. })
        ));
    }

    #[test]
    #[should_panic(expected = "loss rate")]
    fn bad_rates_rejected() {
        let _ = Wireless::new(0, 1.5, 0.0, None);
    }
}
