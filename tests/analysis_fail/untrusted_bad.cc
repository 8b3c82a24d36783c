// Negative fixture for the untrusted-input checker (read as --scope-all
// does): a decoded length reaches an allocation and a loop bound with no
// bounds check and no sticky-error conjunct. The checker's --self-test
// requires exactly those three findings. Not compiled.

namespace deepdive::comm {

struct BadDecoder {
  void Decode(WireReader& r, std::vector<int>* out, std::string* s,
              const std::string& buf) {
    uint32_t n = r.GetU32();
    out->resize(n);  // attacker-sized allocation
    for (uint32_t i = 0; i < n; ++i) {  // no r.ok() conjunct
      out->push_back(r.GetU32());
    }
    uint32_t len = r.GetU32();
    *s = buf.substr(0, len);  // unchecked length
  }
};

}  // namespace deepdive::comm
