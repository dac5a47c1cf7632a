type t = {
  uid : int;
  flow : int;
  seq : int;
  size_bits : float;
  arrival : float;
  mark : int;
}

(* Atomic: [make] is callable from worker Domains (the subtree engine staged
   the old [int ref] from workers, racing uid assignment). The pooled
   packet plane sidesteps this counter entirely — pool handles carry
   their own identity — but direct [make] users (fluid reference systems,
   tests) still need unique uids under parallelism. *)
let counter = Atomic.make 0

let make ?(mark = 0) ~flow ~seq ~size_bits ~arrival () =
  if size_bits <= 0.0 then invalid_arg "Packet.make: size must be positive";
  { uid = 1 + Atomic.fetch_and_add counter 1; flow; seq; size_bits; arrival; mark }

let reset_uid_counter () = Atomic.set counter 0

let pp fmt p =
  Format.fprintf fmt "p_%d^%d(%gb@@%g)" p.flow p.seq p.size_bits p.arrival
