(* Round departure hashes at seed 1: (workload, full size, --quick). A
   run at seed 1 that departs anything else — in order, leaf, sequence
   number or time — has changed the schedule, and every one of its
   packets counts as failed. The --quick hashes put this check under
   `dune runtest`. *)

let seed1 =
  [
    ("port_4k", "06dde5a5c99edbea", "12efe4b4f8f1c0aa");
    ("tree_4k_d6", "2e3ea105e37054c2", "2987d3d350343b8e");
    ("imix_replay", "19ed0793abc512ca", "2f62bbfcdc8e0676");
    ("subtree_overload", "13dfc04f8a22df8a", "30625055f8e95fc9");
  ]

let expected ~workload ~seed ~quick =
  if seed <> 1 then None
  else
    List.find_map
      (fun (w, full, q) ->
        if String.equal w workload then Some (int_of_string ("0x" ^ if quick then q else full))
        else None)
      seed1
