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
//! tenant sees what the first left behind, or ∞ if the tenant is uncapped.

use std::collections::BTreeMap;

struct Account {
    cap: f64,
    spent: f64,
    reserved: f64,
}

/// A granted reservation. Only [`TenantLedger::reserve`] makes one and
/// [`TenantLedger::settle`] consumes it, so it is settled at most once: a
/// double settle, which would double-charge `spent` past the cap, does not
/// compile.
///
/// ```
/// use pb_server::TenantLedger;
/// let mut ledger = TenantLedger::new(100.0);
/// let r = ledger.reserve("a");
/// ledger.settle(r, 30.0);
/// assert_eq!(ledger.reserve("a").amount(), 70.0);
/// ```
///
/// ```compile_fail
/// use pb_server::TenantLedger;
/// let mut ledger = TenantLedger::new(100.0);
/// let r = ledger.reserve("a");
/// ledger.settle(r, 30.0);
/// ledger.settle(r, 30.0); // `r` was moved by the first settle
/// ```
#[derive(Debug)]
pub struct Reservation {
    tenant: String,
    amount: f64,
}

impl Reservation {
    /// Cost units this request may spend (the tenant's remaining budget at
    /// dispatch; `0` for an exhausted tenant, ∞ for an uncapped one).
    pub fn amount(&self) -> f64 {
        self.amount
    }
}

/// The tenant ledger. It holds no lock of its own: the server keeps it in
/// its one locked state, so a reservation and a settlement are each one
/// step of that state.
pub struct TenantLedger {
    accounts: BTreeMap<String, Account>,
    default_cap: f64,
}

impl TenantLedger {
    /// `default_cap` is the per-tenant cumulative budget in cost units;
    /// `f64::INFINITY` disables capping.
    pub fn new(default_cap: f64) -> Self {
        TenantLedger {
            accounts: BTreeMap::new(),
            default_cap,
        }
    }

    /// Reserve the tenant's entire remaining budget for one request.
    pub fn reserve(&mut self, tenant: &str) -> Reservation {
        let acc = self.accounts.entry(tenant.to_string()).or_insert(Account {
            cap: self.default_cap,
            spent: 0.0,
            reserved: 0.0,
        });
        let remaining = (acc.cap - acc.spent - acc.reserved).max(0.0);
        // An uncapped account holds nothing: ∞ − ∞ would leave nothing.
        acc.reserved += if acc.cap.is_finite() { remaining } else { 0.0 };
        Reservation {
            tenant: tenant.to_string(),
            amount: remaining,
        }
    }

    /// Settle a reservation with the actual spend (clamped into the
    /// reservation so accounting can never exceed the cap even if a caller
    /// mis-reports). Settling consumes the reservation.
    pub fn settle(&mut self, r: Reservation, actual: f64) {
        if let Some(acc) = self.accounts.get_mut(&r.tenant) {
            acc.reserved = (acc.reserved - r.amount).max(0.0);
            acc.spent += actual.clamp(0.0, r.amount);
        }
    }

    /// `(tenant, spent, cap)` rows, sorted by tenant for stable output. An
    /// uncapped tenant reports cap `-1.0` (JSON cannot carry infinity).
    pub fn snapshot(&self) -> Vec<(String, f64, f64)> {
        self.accounts
            .iter()
            .map(|(t, acc)| {
                let cap = if acc.cap.is_finite() { acc.cap } else { -1.0 };
                (t.clone(), acc.spent, cap)
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reservations_partition_the_cap() {
        let mut l = TenantLedger::new(100.0);
        let r1 = l.reserve("a");
        assert_eq!(r1.amount(), 100.0);
        let r2 = l.reserve("a");
        assert_eq!(r2.amount(), 0.0, "concurrent request sees nothing left");
        l.settle(r1, 60.0);
        l.settle(r2, 0.0);
        let r3 = l.reserve("a");
        assert_eq!(r3.amount(), 40.0);

        // Uncapped, a concurrent request is uncapped too.
        let mut l = TenantLedger::new(f64::INFINITY);
        let r1 = l.reserve("a");
        let r2 = l.reserve("a");
        assert_eq!((r1.amount(), r2.amount()), (f64::INFINITY, f64::INFINITY));
        l.settle(r1, 60.0);
        assert_eq!(l.reserve("a").amount(), f64::INFINITY);
        l.settle(r2, 0.0);
        assert_eq!(l.snapshot(), vec![("a".to_string(), 60.0, -1.0)]);
    }

    #[test]
    fn tenants_are_isolated() {
        let mut l = TenantLedger::new(50.0);
        let ra = l.reserve("a");
        l.settle(ra, 50.0);
        assert_eq!(l.reserve("a").amount(), 0.0);
        assert_eq!(l.reserve("b").amount(), 50.0, "b unaffected by a's spend");
        assert!(l.snapshot().iter().all(|(_, spent, cap)| spent <= cap));
    }

    #[test]
    fn settle_clamps_into_the_reservation() {
        let mut l = TenantLedger::new(10.0);
        let r = l.reserve("a");
        l.settle(r, 1e9);
        assert_eq!(l.snapshot(), vec![("a".to_string(), 10.0, 10.0)]);
    }
}
