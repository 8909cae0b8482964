module Make (Sm : Rsmr_app.State_machine.S) = struct
  type result = Linearizable | Not_linearizable | Inconclusive

  exception Found
  exception Budget

  let check ?(max_states = 2_000_000) history =
    let ops = Array.of_list (History.ops history) in
    let n = Array.length ops in
    if n = 0 then Linearizable
    else begin
      let cmds = Array.map (fun (o : History.op) -> Sm.decode_command o.cmd) ops in
      let rsps = Array.map (fun (o : History.op) -> Sm.decode_response o.rsp) ops in
      (* Remaining set as a byte-per-op mask folded into the memo key. *)
      let remaining = Bytes.make n '\001' in
      let visited = Hashtbl.create 4096 in
      let budget = ref max_states in
      let rec search state =
        if !budget <= 0 then raise Budget;
        decr budget;
        let key = Bytes.to_string remaining ^ Sm.snapshot state in
        if not (Hashtbl.mem visited key) then begin
          Hashtbl.add visited key ();
          (* Earliest completion among pending ops bounds who can go first. *)
          let min_reply = ref infinity in
          let empty = ref true in
          for i = 0 to n - 1 do
            if Bytes.get remaining i = '\001' then begin
              empty := false;
              if ops.(i).History.replied < !min_reply then
                min_reply := ops.(i).History.replied
            end
          done;
          if !empty then raise Found;
          for i = 0 to n - 1 do
            if
              Bytes.get remaining i = '\001'
              && ops.(i).History.invoked <= !min_reply
            then begin
              let state', rsp = Sm.apply state cmds.(i) in
              if Sm.equal_response rsp rsps.(i) then begin
                Bytes.set remaining i '\000';
                search state';
                Bytes.set remaining i '\001'
              end
            end
          done
        end
      in
      try
        search (Sm.init ());
        Not_linearizable
      with
      | Found -> Linearizable
      | Budget -> Inconclusive
    end
end
