(* A weak registry that neither drops nor resurrects: [add] probes cells
   with [Weak.check] (no allocation, no read barrier) starting after the
   last cell it filled, and doubles the table when none is free; only the
   readers call [Weak.get]. *)

type 'a t = { mu : Mutex.t; mutable cells : 'a Weak.t; mutable hint : int }

let create n = { mu = Mutex.create (); cells = Weak.create (max 1 n); hint = 0 }

(* First empty cell at or after [hint], wrapping once; -1 if none. *)
let free_cell w hint =
  let n = Weak.length w in
  let rec go i left =
    if left = 0 then -1
    else
      let i = if i >= n then 0 else i in
      if Weak.check w i then go (i + 1) (left - 1) else i
  in
  go hint n

let add r v =
  Mutex.protect r.mu (fun () ->
      let slot =
        match free_cell r.cells r.hint with
        | -1 ->
          let n = Weak.length r.cells in
          let bigger = Weak.create (2 * n) in
          Weak.blit r.cells 0 bigger 0 n;
          r.cells <- bigger;
          n
        | i -> i
      in
      Weak.set r.cells slot (Some v);
      r.hint <- slot + 1)

let fold r f init =
  Mutex.protect r.mu (fun () ->
      let acc = ref init in
      for i = 0 to Weak.length r.cells - 1 do
        match Weak.get r.cells i with Some v -> acc := f v !acc | None -> ()
      done;
      !acc)

let iteri r f = ignore (fold r (fun v i -> f i v; i + 1) 0)
let to_list r = fold r List.cons []
