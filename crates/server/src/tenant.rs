//! Per-tenant cost-unit budget accounting.
//!
//! Each tenant holds a cumulative spend cap. Dispatch *reserves* the
//! tenant's full remaining budget for the request and threads it into the
//! driver as [`pb_bouquet::RobustConfig::spend_cap`]; the driver
//! guarantees the run's total never exceeds it, so
//!
//! ```text
//! spent + reserved ≤ cap        (at every instant)
//! ```
//!
//! is an invariant no interleaving can break — a tenant that exhausts its
//! budget has *its* requests land on the capped rung (degraded or
//! budget-exhausted), while other tenants' accounting is untouched.
//! Reservations are strict: a second concurrent request from the same
//! tenant sees only what the first left behind.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

struct Account {
    cap: f64,
    spent: f64,
    reserved: f64,
}

/// A granted reservation. Settlement is exactly-once: panic-containment
/// paths may race a normal settle, and a double settle would double-charge
/// `spent` past the cap.
#[derive(Debug)]
pub struct Reservation {
    pub tenant: String,
    /// Cost units this request may spend (the tenant's remaining budget at
    /// dispatch; `0` for an exhausted tenant).
    pub amount: f64,
    settled: AtomicBool,
}

/// Thread-safe tenant ledger.
pub struct TenantLedger {
    accounts: Mutex<HashMap<String, Account>>,
    default_cap: f64,
}

impl TenantLedger {
    /// `default_cap` is the per-tenant cumulative budget in cost units;
    /// `f64::INFINITY` disables capping.
    pub fn new(default_cap: f64) -> Self {
        TenantLedger {
            accounts: Mutex::new(HashMap::new()),
            default_cap,
        }
    }

    fn lock(&self) -> MutexGuard<'_, HashMap<String, Account>> {
        self.accounts.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Reserve the tenant's entire remaining budget for one request.
    pub fn reserve(&self, tenant: &str) -> Reservation {
        let mut a = self.lock();
        let acc = a.entry(tenant.to_string()).or_insert(Account {
            cap: self.default_cap,
            spent: 0.0,
            reserved: 0.0,
        });
        let remaining = (acc.cap - acc.spent - acc.reserved).max(0.0);
        acc.reserved += remaining;
        Reservation {
            tenant: tenant.to_string(),
            amount: remaining,
            settled: AtomicBool::new(false),
        }
    }

    /// Settle a reservation with the actual spend (clamped into the
    /// reservation so accounting can never exceed the cap even if a caller
    /// mis-reports). Second and later settles of the same reservation are
    /// no-ops.
    pub fn settle(&self, r: &Reservation, actual: f64) {
        if r.settled.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut a = self.lock();
        if let Some(acc) = a.get_mut(&r.tenant) {
            acc.reserved = (acc.reserved - r.amount).max(0.0);
            acc.spent += actual.clamp(0.0, r.amount);
        }
    }

    /// `(tenant, spent, cap)` rows, sorted by tenant for stable output. An
    /// uncapped tenant reports cap `-1.0` (JSON cannot carry infinity).
    pub fn snapshot(&self) -> Vec<(String, f64, f64)> {
        let a = self.lock();
        let mut rows: Vec<_> = a
            .iter()
            .map(|(t, acc)| {
                let cap = if acc.cap.is_finite() { acc.cap } else { -1.0 };
                (t.clone(), acc.spent, cap)
            })
            .collect();
        rows.sort_by(|x, y| x.0.cmp(&y.0));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservations_partition_the_cap() {
        let l = TenantLedger::new(100.0);
        let r1 = l.reserve("a");
        assert_eq!(r1.amount, 100.0);
        let r2 = l.reserve("a");
        assert_eq!(r2.amount, 0.0, "concurrent request sees nothing left");
        l.settle(&r1, 60.0);
        l.settle(&r2, 0.0);
        let r3 = l.reserve("a");
        assert_eq!(r3.amount, 40.0);
    }

    #[test]
    fn tenants_are_isolated() {
        let l = TenantLedger::new(50.0);
        let ra = l.reserve("a");
        l.settle(&ra, 50.0);
        assert_eq!(l.reserve("a").amount, 0.0);
        assert_eq!(l.reserve("b").amount, 50.0, "b unaffected by a's spend");
        assert!(l.snapshot().iter().all(|(_, spent, cap)| spent <= cap));
    }

    #[test]
    fn settle_is_exactly_once() {
        let l = TenantLedger::new(100.0);
        let r = l.reserve("a");
        l.settle(&r, 30.0);
        l.settle(&r, 30.0);
        assert_eq!(l.snapshot(), vec![("a".to_string(), 30.0, 100.0)]);
        assert_eq!(l.reserve("a").amount, 70.0);
    }

    #[test]
    fn settle_clamps_into_the_reservation() {
        let l = TenantLedger::new(10.0);
        let r = l.reserve("a");
        l.settle(&r, 1e9);
        assert_eq!(l.snapshot(), vec![("a".to_string(), 10.0, 10.0)]);
    }
}
