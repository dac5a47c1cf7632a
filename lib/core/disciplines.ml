let wf2q_plus = Wf2q_plus.factory
let wf2q_plus_fixed = Wf2q_plus_fixed.factory
let wf2q_plus_per_packet = Wf2q_plus_stamped.factory
let wfq = Sched.Tagged.wfq
let wf2q = Sched.Tagged.wf2q
let scfq = Sched.Tagged.scfq
let sfq = Sched.Tagged.sfq
let virtual_clock = Sched.Tagged.virtual_clock
let drr = Sched.Round_robin.drr ()
let wrr = Sched.Round_robin.wrr ()
let fifo = Sched.Tagged.fifo

let all =
  [
    wf2q_plus; wf2q_plus_fixed; wf2q_plus_per_packet; wfq; wf2q; scfq; sfq;
    virtual_clock; drr; wrr; fifo;
  ]
let pfq = [ wf2q_plus; wf2q_plus_fixed; wf2q_plus_per_packet; wfq; wf2q; scfq; sfq ]

let find kind =
  let kind = String.lowercase_ascii kind in
  List.find_opt
    (fun f -> String.lowercase_ascii f.Sched.Sched_intf.kind = kind)
    all
