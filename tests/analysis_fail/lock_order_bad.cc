// Negative fixture for the lock-order checker: two functions acquire the
// same pair of mutexes in opposite orders — the classic AB/BA deadlock.
// The checker's --self-test runs it on this file alone and requires
// exactly that cycle. Not compiled.

namespace deepdive {

class Ledger {
 public:
  void Credit() {
    MutexLock accounts(accounts_mu_);
    MutexLock audit(audit_mu_);
  }
  void Audit() {
    MutexLock audit(audit_mu_);
    MutexLock accounts(accounts_mu_);
  }

 private:
  Mutex accounts_mu_;
  Mutex audit_mu_;
};

}  // namespace deepdive
